#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

size_t SamplesBeyond(size_t n, double p) {
  // The epsilon keeps 1000 samples at p99 at exactly 10, not 9.
  return static_cast<size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

Tail SupportedTail(const std::vector<double>& values, double wanted) {
  Tail tail;
  tail.count = values.size();
  for (const double p : {wanted, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > wanted) continue;
    if (SamplesBeyond(values.size(), p) >= kMinBeyond) {
      tail.percentile = p;
      tail.beyond = SamplesBeyond(values.size(), p);
      tail.value = Percentile(values, p);
      return tail;
    }
  }
  tail.percentile = 100;
  tail.value = values.empty() ? 0 : *std::max_element(values.begin(), values.end());
  return tail;
}

std::vector<double> ChunkRates(const std::vector<double>& times_s,
                               const std::vector<double>& weights, size_t chunks) {
  std::vector<double> rates;
  const size_t per = times_s.size() / std::max<size_t>(1, chunks);
  if (per < 2) return rates;
  for (size_t c = 0; c + 1 <= times_s.size() / per; ++c) {
    const size_t first = c * per, last = first + per - 1;
    double work = 0;
    for (size_t i = first + 1; i <= last; ++i) work += weights.empty() ? 1.0 : weights[i];
    const double span = times_s[last] - times_s[first];
    if (span > 0) rates.push_back(work / span);
  }
  return rates;
}

}  // namespace perfbench
