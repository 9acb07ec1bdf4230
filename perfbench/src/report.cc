#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "knmatch/serve/json.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"p50_ms", "ms"},
      {"p95_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"core.query_ms_p50", "ms"},
      {"core.query_ms_p99", "ms"},
      {"core.locate_us", "us"},
      {"core.ascend_ms", "ms"},
      {"core.rank_us", "us"},
      {"core.attrs_per_query", "count"},
      {"core.pops_per_query", "count"},
      {"core.ns_per_pop", "ns"},
      {"core.snapshot_query_ms", "ms"},
      {"exec.batch_ms", "ms"},
      {"exec.pool_efficiency", "ratio"},
      {"exec.worker_busy_share", "ratio"},
      {"exec.shed_share", "ratio"},
      {"serve.http_parse_us", "us"},
      {"serve.json_parse_us", "us"},
      {"serve.json_write_us", "us"},
      {"serve.overhead_ms_p50", "ms"},
      {"serve.wait_ms_p99", "ms"},
      {"serve.requests", "count"},
      {"serve.deadline_hits", "count"},
      {"serve.torn_frames", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.hit_us", "us"},
      {"cache.miss_ms", "ms"},
      {"cache.evictions", "count"},
      {"cache.entries", "count"},
      {"shard.router_ms_p50", "ms"},
      {"shard.router_ms_p99", "ms"},
      {"shard.fanout_ms_p99", "ms"},
      {"shard.gather_ms", "ms"},
      {"shard.speedup_vs_unsharded", "ratio"},
      {"shard.points_imbalance", "ratio"},
      {"shard.hedges", "count"},
      {"shard.failovers", "count"},
      {"shard.partial_answers", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.fsyncs_per_write", "ratio"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.pages_flushed_per_checkpoint", "count"},
      {"storage.btree_visits_per_query", "count"},
      {"storage.read_p99_during_checkpoint_ms", "ms"},
      {"storage.ingest_ops_s", "1/s"},
      {"storage.ingest_p50_ms", "ms"},
      {"storage.ingest_p95_ms", "ms"},
      {"harness.late_ms_p99", "ms"},
      {"harness.trace_overhead_pct", "%"},
      {"harness.unattributed_pct", "%"},
  };
  return defs;
}

const char* UnitOf(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return nullptr;
}

void Report::Set(const std::string& name, double value) {
  if (UnitOf(name) == nullptr) {
    throw std::logic_error("uncatalogued metric " + name);
  }
  // A non-finite value (0/0 on an empty sample) would not survive JSON.
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::SetTail(const std::string& name,
                     const std::vector<double>& samples, double wanted) {
  SetFromTail(name, SupportedTail(samples, wanted));
}

void Report::SetRate(const std::string& name, const std::vector<double>& rates) {
  Set(name, Median(rates));
  char line[256];
  std::snprintf(line, sizeof(line), "%s = median of %zu chunk rates in [%.6g, %.6g] %s",
                name.c_str(), rates.size(),
                rates.empty() ? 0.0 : *std::min_element(rates.begin(), rates.end()),
                rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()),
                UnitOf(name));
  Note(line);
}

void Report::NoteTail(const std::string& label, const std::vector<double>& samples,
                      double wanted, const char* unit) {
  NoteFromTail(label, SupportedTail(samples, wanted), unit);
}

void Report::SetFromTail(const std::string& name, const Tail& tail) {
  Set(name, tail.value);
  NoteFromTail(name, tail, UnitOf(name));
}

void Report::NoteFromTail(const std::string& label, const Tail& tail, const char* unit) {
  char line[256];
  if (tail.supported()) {
    std::snprintf(line, sizeof(line), "%s = p%g of %zu samples (%zu beyond) = %.6g %s",
                  label.c_str(), tail.percentile, tail.count, tail.beyond, tail.value, unit);
  } else {
    std::snprintf(line, sizeof(line),
                  "%s = max of %zu samples (too few for a supported percentile) = %.6g %s",
                  label.c_str(), tail.count, tail.value, unit);
  }
  Note(line);
}

void Report::Note(std::string line) { notes_.push_back(std::move(line)); }

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> Report::Missing(
    const std::vector<MetricDef>& defs) const {
  std::vector<std::string> missing;
  for (const MetricDef& d : defs) {
    if (!Has(d.name)) missing.emplace_back(d.name);
  }
  return missing;
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<MetricDef>& defs) const {
  knmatch::serve::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Uint(attempted);
  w.Key("failed").Uint(failed);
  w.Key("metrics").BeginObject();
  for (const MetricDef& d : defs) {
    w.Key(d.name).BeginObject();
    w.Key("value").Number(Get(d.name));
    w.Key("unit").String(d.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace perfbench
