#ifndef KNMATCH_STORAGE_FAULT_INJECTOR_H_
#define KNMATCH_STORAGE_FAULT_INJECTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace knmatch {

/// Deterministic fault source for the simulated disk. Attached to a
/// DiskSimulator, it is consulted once per *physical* read attempt
/// (buffered reads never reach the media, so they cannot fault) and
/// decides whether the attempt succeeds, fails transiently, or delivers
/// a corrupted page image.
///
/// Two kinds of schedule compose:
///  - Scripted faults (FailNextReads, CorruptPage): exact, per-page,
///    for targeted tests. Scripted corruption is sticky until healed.
///  - Randomized faults (transient_error_rate, corruption_rate):
///    seeded and hash-derived, so a run is reproducible bit-for-bit.
///    Transient faults are drawn independently per (page, attempt
///    number); corruption is a sticky per-page property (a damaged
///    sector stays damaged), drawn once from (seed, page).
///
/// Internally synchronized: one injector may be shared by several
/// DiskSimulators whose reads run concurrently — one fault domain under
/// a sharded router's fan-out models a correlated outage. Every draw is
/// a pure function of (seed, page, per-page attempt number), so each
/// page sees the same fault sequence however threads interleave.
class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 0;
    /// Probability that any physical read attempt fails transiently.
    double transient_error_rate = 0.0;
    /// Probability that a page's stored image is damaged (per page,
    /// sticky: every read of a damaged page delivers garbage).
    double corruption_rate = 0.0;
  };

  enum class Outcome {
    kOk,
    kTransientError,  // nothing transferred; retrying may succeed
    kCorruption,      // a full page transferred, contents damaged
  };

  /// Kill points of the live-ingest write path (storage/ingest.h).
  /// The writer consults ShouldCrash() at each boundary; a scheduled
  /// crash makes it fail-stop there, leaving exactly the durable state
  /// a power loss at that instant would leave. The crash-matrix test
  /// proves every point recovers to a bit-identical pre- or
  /// post-transaction state.
  enum class CrashPoint : uint8_t {
    kAfterWalAppend = 0,  // txn's page images logged, commit record not
    kAfterCommitAppend,   // commit record appended but not fsynced
    kMidFsync,            // fsync advanced the durable mark part-way
    kAfterFsync,          // commit durable; nothing flushed/published
    kMidPageFlush,        // checkpoint tore one flushed page image
    kAfterPageFlush,      // pages flushed; checkpoint record not logged
    kMidCheckpoint,       // checkpoint record durable, WAL not truncated
  };
  static constexpr size_t kNumCrashPoints = 7;

  FaultInjector() = default;
  explicit FaultInjector(const Config& config) : config_(config) {}

  Config config() const {
    std::scoped_lock lock(mu_);
    return config_;
  }

  /// Decides the outcome of one physical read attempt of `page`.
  /// Scripted faults take precedence over randomized ones; corruption
  /// takes precedence over a pending transient failure.
  Outcome OnReadAttempt(uint64_t page);

  /// Scripts the next `times` physical reads of `page` to fail
  /// transiently (fail-N-times-then-succeed).
  void FailNextReads(uint64_t page, uint32_t times);

  /// Scripts sticky corruption of `page`.
  void CorruptPage(uint64_t page);

  /// Removes any scripted fault on `page` and masks randomized
  /// corruption of it.
  void HealPage(uint64_t page);

  /// Schedules a fail-stop crash at the `nth` future arrival at
  /// `point` (1 = the very next one). At most one schedule per point;
  /// re-scheduling replaces it.
  void ScheduleCrash(CrashPoint point, uint32_t nth = 1);

  /// Consulted by the ingest writer at each kill point: decrements the
  /// schedule for `point` and returns true when it hits zero (crash
  /// now). Unscheduled points always return false.
  bool ShouldCrash(CrashPoint point);

  /// True when any crash schedule is still armed.
  bool HasScheduledCrash() const;

  uint64_t crashes_delivered() const {
    std::scoped_lock lock(mu_);
    return crashes_delivered_;
  }

  /// Drops every scripted fault, every healed-page mask, every crash
  /// schedule, and both randomized rates: the disk is healthy from now
  /// on.
  void Clear();

  /// Totals of injected faults, for diagnostics and tests.
  uint64_t transient_faults_injected() const {
    std::scoped_lock lock(mu_);
    return transient_faults_injected_;
  }
  uint64_t corruptions_injected() const {
    std::scoped_lock lock(mu_);
    return corruptions_injected_;
  }

 private:
  /// Deterministic per-draw uniform in [0, 1).
  static double HashToUnit(uint64_t seed, uint64_t a, uint64_t b);

  /// Guards every field below.
  mutable std::mutex mu_;
  Config config_;
  std::unordered_map<uint64_t, uint32_t> scripted_failures_;
  std::unordered_set<uint64_t> scripted_corrupt_;
  std::unordered_set<uint64_t> healed_;
  /// Per-page count of physical attempts, the per-attempt draw index.
  std::unordered_map<uint64_t, uint64_t> attempts_;
  uint64_t transient_faults_injected_ = 0;
  uint64_t corruptions_injected_ = 0;
  /// Per-point countdown; 0 = unarmed.
  std::array<uint32_t, kNumCrashPoints> crash_schedule_{};
  uint64_t crashes_delivered_ = 0;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_FAULT_INJECTOR_H_
