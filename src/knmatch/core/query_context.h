#ifndef KNMATCH_CORE_QUERY_CONTEXT_H_
#define KNMATCH_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch {

/// Hard resource ceilings for one query; 0 means unlimited. Exceeding
/// any of them trips the query with kResourceExhausted — retrying
/// unchanged would exhaust it again, so the remedy is shrinking the
/// query or raising the budget.
struct QueryBudgets {
  /// Attributes retrieved (the paper's cost metric; scans charge c*d
  /// as they stream rows).
  uint64_t max_attributes = 0;
  /// Physical page reads on the simulated disk by this query alone,
  /// counted from the moment it arms its context (ArmPages); reads by
  /// concurrent queries and writers never count against it.
  uint64_t max_pages = 0;
  /// Working-memory footprint of the AD scratch arena; checked once at
  /// admission, before anything is allocated.
  size_t max_scratch_bytes = 0;

  bool any() const {
    return max_attributes != 0 || max_pages != 0 || max_scratch_bytes != 0;
  }
};

/// Everything the query ran up against when it tripped: how far the
/// ascend got and the best-so-far answer sets, so a caller on a
/// deadline still gets the partial result the attributes it paid for
/// support.
struct GovernanceTrip {
  /// Attributes consumed in ascending difference order before the trip
  /// (0 for the scan-shaped methods, which have no pop loop).
  uint64_t pops = 0;
  /// Attributes retrieved before the trip.
  uint64_t attributes_retrieved = 0;
  /// Physical pages read between ArmPages() and the trip.
  uint64_t pages_read = 0;
  /// Best-so-far k-n-match answer sets at the moment of the trip, one
  /// per n in the query's [n0, n1] (empty for methods that had not yet
  /// produced exact candidates, e.g. a VA query tripped in phase 1).
  /// Entries are exact prefixes of the untripped answer: the AD engines
  /// emit completions in final order, and the scan engines snapshot
  /// their running top-k accumulators.
  std::vector<std::vector<Neighbor>> partial_per_n_sets;
};

/// Per-query governance: a monotonic deadline, a shared cancellation
/// token, and resource budgets, checked cooperatively by every engine
/// at amortized intervals (once per N pop-rounds or row-batches — never
/// per pop, so the ungoverned hot path is untouched and the governed
/// one stays within the bench drift budget).
///
/// A context is single-query, single-thread state (the cancel token may
/// be set from any thread). Pass one by pointer into any engine entry
/// point; nullptr everywhere means ungoverned. On a trip the engine
/// unwinds cleanly, the context latches a typed status —
/// kDeadlineExceeded (deadline), kResourceExhausted (budgets),
/// kUnavailable (cancel) — plus a GovernanceTrip with the partial
/// result, and the entry point returns that status. The engine object
/// itself stays fully reusable.
///
/// ```
/// QueryContext ctx;
/// ctx.set_deadline_in_ms(5.0);
/// ctx.budgets().max_attributes = 100'000;
/// auto r = engine.DiskFrequentKnMatch(q, 1, d, k, method, &ctx);
/// if (!r.ok() && ctx.tripped()) { ... ctx.trip().partial_per_n_sets ... }
/// ```
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  /// Arms a wall-clock deadline `ms` milliseconds from now (<= 0
  /// clears it). Rearm() restarts the same duration later.
  void set_deadline_in_ms(double ms) {
    deadline_duration_ms_ = ms > 0 ? ms : 0;
    ArmDeadline();
  }

  /// Arms an absolute deadline (the batch executor shares one across a
  /// batch). The fraction-consumed observation measures from now.
  void set_deadline(Clock::time_point deadline) {
    deadline_duration_ms_ = 0;
    has_deadline_ = true;
    start_ = Clock::now();
    deadline_ = deadline;
  }

  /// Arms a deadline `ms` milliseconds after `start` (<= 0 clears it).
  /// For callers that accept the deadline over a transport and only
  /// reach the engine later (serve/): time already spent queued and
  /// parsing counts against the budget, so a request that aged out in
  /// the accept queue trips immediately instead of running anyway.
  void set_deadline_in_ms_from(Clock::time_point start, double ms) {
    deadline_duration_ms_ = 0;
    has_deadline_ = ms > 0;
    if (has_deadline_) {
      start_ = start;
      deadline_ = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(ms));
    }
  }

  /// Shares a cancellation token: set it to true from any thread and
  /// the query trips (kUnavailable) at its next governance check.
  void set_cancel(std::shared_ptr<std::atomic<bool>> cancel) {
    cancel_ = std::move(cancel);
  }

  QueryBudgets& budgets() { return budgets_; }
  const QueryBudgets& budgets() const { return budgets_; }

  /// Attaches an approximation policy to every query run under this
  /// context. Entry points that also take an explicit ApproxPolicy
  /// parameter prefer the explicit one when it is non-exact; the
  /// context's policy covers call sites (batch workers, shard slices)
  /// where threading a parameter is impractical. Approximation is a
  /// per-query contract like the budgets, not a trip condition: it
  /// changes the answer's recall, never the query's status.
  void set_approx_policy(const ApproxPolicy& policy) { approx_ = policy; }
  const ApproxPolicy& approx_policy() const { return approx_; }

  /// True when a deadline (duration or absolute) is armed.
  bool has_deadline() const { return has_deadline_; }

  /// The armed absolute deadline; meaningful only when has_deadline().
  /// The shard router reads it to carve per-shard deadline slices.
  Clock::time_point deadline() const { return deadline_; }

  /// The shared cancellation token (null when none). The shard router
  /// re-arms each per-shard child context with it, so one cancel trips
  /// every in-flight shard slice.
  const std::shared_ptr<std::atomic<bool>>& cancel_token() const {
    return cancel_;
  }

  /// True when any limit is armed; engines take the plain ungoverned
  /// path otherwise.
  bool governed() const {
    return has_deadline_ || cancel_ != nullptr || budgets_.any();
  }

  /// Arms page accounting for a query over `disk`'s stores: snapshots
  /// the calling thread's read counter (DiskSimulator::thread_reads),
  /// so max_pages bounds the pages THIS query reads — a query runs on
  /// the thread that arms it — and concurrent readers or a writer on
  /// the same simulator never count against it. Engines call it on
  /// entry; pass nullptr for memory-only methods.
  void ArmPages(const DiskSimulator* disk) {
    pages_armed_ = disk != nullptr;
    page_base_ = pages_armed_ ? DiskSimulator::thread_reads() : 0;
  }

  /// Clears the trip and restarts a duration deadline from now; page
  /// accounting re-arms on the next engine entry. Call between queries
  /// when reusing one context.
  void Rearm() {
    trip_status_ = Status::OK();
    trip_ = GovernanceTrip{};
    ArmDeadline();
  }

  /// Admission check of the scratch arena's estimated footprint; false
  /// (with a latched kResourceExhausted) refuses the query before any
  /// allocation happens.
  bool AdmitScratch(size_t bytes) {
    if (tripped()) return false;
    if (budgets_.max_scratch_bytes != 0 &&
        bytes > budgets_.max_scratch_bytes) {
      Trip(Status::ResourceExhausted(
               "scratch-memory budget refuses query"),
           obs::Cat().governance_trip_scratch);
      return false;
    }
    return true;
  }

  /// The amortized in-flight check: false once the query must stop.
  /// `attributes` and `pops` are the engine's running totals; pages are
  /// read off the armed simulator. Called once per governance stride,
  /// not per pop.
  bool Recheck(uint64_t attributes, uint64_t pops) {
    if (!RecheckBudgets(attributes, pops)) return false;
    if (has_deadline_ && Clock::now() >= deadline_) {
      Trip(Status::DeadlineExceeded("query deadline exceeded"),
           obs::Cat().governance_trip_deadline);
      return false;
    }
    return true;
  }

  /// Recheck minus the deadline: cancellation and the three budgets,
  /// no clock read. Engines whose strides are short in wall time call
  /// it on most strides and the full Recheck on every few.
  bool RecheckBudgets(uint64_t attributes, uint64_t pops) {
    if (tripped()) return false;
    trip_.attributes_retrieved = attributes;
    trip_.pops = pops;
    if (pages_armed_) {
      trip_.pages_read = DiskSimulator::thread_reads() - page_base_;
    }
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      Trip(Status::Unavailable("query cancelled"),
           obs::Cat().governance_trip_cancel);
      return false;
    }
    if (budgets_.max_attributes != 0 &&
        attributes > budgets_.max_attributes) {
      Trip(Status::ResourceExhausted("attribute budget exhausted"),
           obs::Cat().governance_trip_attributes);
      return false;
    }
    if (budgets_.max_pages != 0 && trip_.pages_read > budgets_.max_pages) {
      Trip(Status::ResourceExhausted("page-read budget exhausted"),
           obs::Cat().governance_trip_pages);
      return false;
    }
    return true;
  }

  /// RecheckBudgets without its side effects: true when that check
  /// would pass at `attributes` right now. Nothing is latched, so an
  /// engine can ask it about a stretch of work before deciding to skip
  /// the rechecks inside it.
  bool BudgetsHold(uint64_t attributes) const {
    if (tripped()) return false;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return false;
    }
    if (budgets_.max_attributes != 0 &&
        attributes > budgets_.max_attributes) {
      return false;
    }
    if (budgets_.max_pages != 0) {
      const uint64_t pages = pages_armed_
                                 ? DiskSimulator::thread_reads() - page_base_
                                 : trip_.pages_read;
      if (pages > budgets_.max_pages) return false;
    }
    return true;
  }

  /// True once a check failed; latched until Rearm().
  bool tripped() const { return !trip_status_.ok(); }
  /// The typed trip reason; OK while untripped.
  const Status& trip_status() const { return trip_status_; }
  /// Progress and partial result at the trip.
  const GovernanceTrip& trip() const { return trip_; }
  GovernanceTrip& trip() { return trip_; }

  /// Hands the unwinding engine's best-so-far answer sets to the trip
  /// record (moves them out of `sets`).
  void StorePartialSets(std::vector<std::vector<Neighbor>>* sets) {
    trip_.partial_per_n_sets = std::move(*sets);
  }

  /// Observes what share of the deadline the query consumed (percent;
  /// tripped queries land at or above 100). Entry-point facades call
  /// this once per query, after the query settles.
  void ObserveDeadlineFraction() const {
    if (!has_deadline_ || !obs::Enabled()) return;
    const double total =
        std::chrono::duration<double>(deadline_ - start_).count();
    if (total <= 0) return;
    const double used =
        std::chrono::duration<double>(Clock::now() - start_).count();
    obs::Cat().deadline_fraction->Observe(
        static_cast<uint64_t>(100.0 * used / total));
  }

 private:
  void ArmDeadline() {
    has_deadline_ = deadline_duration_ms_ > 0;
    if (has_deadline_) {
      start_ = Clock::now();
      deadline_ =
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           deadline_duration_ms_));
    }
  }

  void Trip(Status status, obs::Counter* counter) {
    trip_status_ = std::move(status);
    if (obs::Enabled()) counter->Add();
  }

  QueryBudgets budgets_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  double deadline_duration_ms_ = 0;
  bool has_deadline_ = false;
  Clock::time_point start_;
  Clock::time_point deadline_;
  bool pages_armed_ = false;
  uint64_t page_base_ = 0;
  Status trip_status_;
  GovernanceTrip trip_;
  // Last on purpose: the approximation policy is read once per query,
  // while everything above it is on Recheck's per-stride hot path —
  // keep those members at their pre-approximation offsets.
  ApproxPolicy approx_;
};

namespace internal {

/// Pops between governance rechecks in the AD drivers (and rows
/// between rechecks in the scan-shaped engines). Small enough that a
/// 1 ms deadline trips within microseconds of work, large enough that
/// the clock read and counter refresh amortize to noise per pop.
inline constexpr uint32_t kGovernanceStride = 256;

/// Governance strides between deadline (clock) reads in the in-memory
/// AD ascend: its pops cost ~10-20 ns, so a clock read every 256 would
/// cost the governed lane its <2% budget, while 2,048 pops still span
/// only tens of microseconds. Cancellation and budgets are still read
/// every stride.
inline constexpr uint32_t kDeadlineStrides = 8;

}  // namespace internal

}  // namespace knmatch

#endif  // KNMATCH_CORE_QUERY_CONTEXT_H_
