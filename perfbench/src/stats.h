#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail an anecdote.
inline constexpr size_t kMinBeyond = 10;

/// Linear-interpolated percentile, p in [0, 100] (numpy's default
/// rule). 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// The 50th percentile.
double Median(std::vector<double> values);

/// Samples that lie beyond the p-th percentile of n samples:
/// floor(n * (100 - p) / 100).
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile together with the sample that supports it.
struct Tail {
  double percentile = 0;  // which percentile `value` is; 0 = none
  double value = 0;
  size_t count = 0;   // samples
  size_t beyond = 0;  // samples beyond the percentile
  bool supported() const { return beyond >= kMinBeyond; }
};

/// The `wanted` percentile when at least kMinBeyond samples lie beyond
/// it; otherwise the highest of the 99th, 95th, 90th, 75th and 50th
/// percentiles below `wanted` that has that support; otherwise the
/// sample maximum, with percentile 100 and beyond 0.
Tail SupportedTail(const std::vector<double>& values, double wanted);

/// Completion rates of up to `chunks` consecutive runs of events: for
/// each run, the weight it completed after its first event divided by
/// the time from its first to its last event. `times_s` are completion
/// times in seconds, ascending; `weights` the work each completed (empty
/// means 1 each). A rate that one slow second cannot own is the median.
std::vector<double> ChunkRates(const std::vector<double>& times_s,
                               const std::vector<double>& weights, size_t chunks);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
