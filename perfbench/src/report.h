#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// A metric the benchmark promises to print: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0), for every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every traced run (--trace 1), for every workload.
const std::vector<MetricDef>& PerLayerMetrics();

/// The metrics and notes one run produces.
class Report {
 public:
  /// Records `name`, which must be in one of the two catalogs.
  void Set(const std::string& name, double value);
  /// Records the `wanted` percentile of `samples` under `name`, falling
  /// back to the highest supported percentile (see SupportedTail), and
  /// notes which percentile it is and the sample behind it.
  void SetTail(const std::string& name, const std::vector<double>& samples,
               double wanted);
  /// Notes the `wanted` percentile of `samples` (with its support)
  /// without recording a metric.
  void NoteTail(const std::string& label, const std::vector<double>& samples,
                double wanted, const char* unit);
  /// Records the median of `rates` and notes their range.
  void SetRate(const std::string& name, const std::vector<double>& rates);
  /// A human-readable line printed before the result.
  void Note(std::string line);

  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;
  const std::vector<std::string>& notes() const { return notes_; }

  /// Names in `defs` this report has not set.
  std::vector<std::string> Missing(const std::vector<MetricDef>& defs) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}
  /// with exactly the metrics in `defs`.
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<MetricDef>& defs) const;

 private:
  void SetFromTail(const std::string& name, const Tail& tail);
  void NoteFromTail(const std::string& label, const Tail& tail, const char* unit);

  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

/// Unit of a catalogued metric; nullptr for an unknown name.
const char* UnitOf(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
