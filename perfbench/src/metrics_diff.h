#ifndef PERFBENCH_METRICS_DIFF_H_
#define PERFBENCH_METRICS_DIFF_H_

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// One scrape of a Prometheus text exposition: series key (the name
/// with its label body, as exposed, e.g. `knmatch_wal_bytes_total` or
/// `knmatch_batch_query_seconds_sum{worker="0"}`) to value.
using MetricMap = std::map<std::string, double>;

/// Parses Prometheus text exposition (what GET /metrics serves).
MetricMap ParsePrometheus(std::string_view text);

/// Scrapes this process's global registry through the same exposition
/// renderer /metrics uses.
MetricMap ScrapeProcess();

/// after[key] - before[key]; absent series read as 0.
double Delta(const MetricMap& before, const MetricMap& after,
             const std::string& key);

/// Sum of Delta over every series whose key starts with `prefix`.
double DeltaPrefix(const MetricMap& before, const MetricMap& after,
                   const std::string& prefix);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_DIFF_H_
