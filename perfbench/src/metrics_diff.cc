#include "metrics_diff.h"

#include <cstdlib>

#include "knmatch/obs/exposition.h"

namespace perfbench {

MetricMap ParsePrometheus(std::string_view text) {
  MetricMap out;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view() : text.substr(eol + 1);
    if (line.empty() || line.front() == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    const std::string value(line.substr(space + 1));
    out[std::string(line.substr(0, space))] = std::strtod(value.c_str(), nullptr);
  }
  return out;
}

MetricMap ScrapeProcess() {
  return ParsePrometheus(
      knmatch::obs::RenderPrometheus(knmatch::obs::MetricsRegistry::Global()));
}

double Delta(const MetricMap& before, const MetricMap& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double DeltaPrefix(const MetricMap& before, const MetricMap& after,
                   const std::string& prefix) {
  double sum = 0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += Delta(before, after, it->first);
  }
  return sum;
}

}  // namespace perfbench
