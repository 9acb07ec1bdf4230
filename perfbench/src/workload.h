#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "knmatch/common/types.h"
#include "knmatch/core/match_types.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Shrinks every dataset and pool so a run takes about a second; for
  /// the smoke test, never for measurements.
  bool tiny = false;
  /// Worker threads for batches and client connections (nproc).
  size_t threads = 1;
};

/// Everything a run accumulates.
struct RunContext {
  explicit RunContext(RunConfig c) : cfg(std::move(c)) {}

  RunConfig cfg;
  Report report;
  SpanLog spans;
  /// Operations attempted, and those that failed, were refused or
  /// returned a wrong answer (`wrong` counts the last kind).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  /// The span log when the current phase is traced, else nullptr.
  SpanLog* tracing = nullptr;
  /// Request ids shared by every span source in the run (any thread).
  uint64_t NextRequest() { return next_request_.fetch_add(1); }

 private:
  std::atomic<uint64_t> next_request_{1};
};

/// The workload names, in the order the documentation lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs `ctx->cfg.workload`; false for an unknown name. Sets every
/// end-to-end metric, and with cfg.trace every per-layer metric.
bool RunWorkload(RunContext* ctx);

// The workloads (workload_*.cc).
void RunBatchExact(RunContext* ctx);
void RunIngestMixed(RunContext* ctx);

/// The query shape every workload sends: k-n-match with n = kN, and
/// frequent k-n-match over n in [kN0, kN1]; k = kK throughout.
inline constexpr size_t kN = 8, kN0 = 4, kN1 = 8, kK = 10;

/// Consecutive chunks a closed-loop rate is the median of.
inline constexpr size_t kRateChunks = 20;

/// Milliseconds between two steady-clock instants.
inline double Ms(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Bit-identity of two answers: the same matches in the same order and
/// the same attribute count.
inline bool SameAnswer(const knmatch::KnMatchResult& a,
                       const knmatch::KnMatchResult& b) {
  return a.matches == b.matches &&
         a.attributes_retrieved == b.attributes_retrieved;
}
inline bool SameAnswer(const knmatch::FrequentKnMatchResult& a,
                       const knmatch::FrequentKnMatchResult& b) {
  return a.matches == b.matches && a.frequencies == b.frequencies &&
         a.attributes_retrieved == b.attributes_retrieved;
}

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// Trace-overhead percentage of a traced measurement over an untraced
/// one of the same inputs.
inline double OverheadPct(double untraced, double traced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
