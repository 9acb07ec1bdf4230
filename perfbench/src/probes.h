#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/engine.h"
#include "workload.h"

namespace perfbench {

/// A workload's data and queries, as the layer probes see them.
struct ProbeData {
  const knmatch::Dataset* db = nullptr;
  const std::vector<std::vector<knmatch::Value>>* queries = nullptr;
};

/// Fills every per-layer metric the workload's own traffic did not set,
/// by calling each layer's public functions directly on the workload's
/// data and queries: core, exec, shard, cache and serve always, storage
/// unless the workload ran a live session itself.
void FillProbes(RunContext* ctx, const ProbeData& data);

/// A live-ingest session: one writer (IngestPoint:ErasePoint at 4:1,
/// Checkpoint() every 25 writes) beside two LiveKnMatch readers, then a
/// quiesced check against a fresh engine over the live points.
struct IngestParams {
  /// Writes per second the writer is paced at; 0 writes back to back.
  double writes_per_s = 6;
  double seconds = 1;
  size_t max_writes = std::numeric_limits<size_t>::max();
  uint64_t seed = 1;
};

struct IngestOutcome {
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  std::vector<double> read_done_s;  // read completion, seconds since start
  std::vector<double> read_during_checkpoint_ms;
  std::vector<double> checkpoint_ms;
  size_t writes_ok = 0;
  double writer_seconds = 0;
  double wal_bytes = 0;
  double fsyncs = 0;
  double pages_flushed = 0;
  double btree_visits_per_query = 0;
};

/// Runs the session on `engine`, whose ingest session is open over
/// `base`; attempts, failures and wrong answers go to `ctx`.
IngestOutcome RunIngestSession(RunContext* ctx, knmatch::SimilarityEngine* engine,
                               const knmatch::Dataset& base,
                               const std::vector<std::vector<knmatch::Value>>& queries,
                               const IngestParams& params);

/// Sets the storage.* metrics and core.snapshot_query_ms from a session.
void SetStorageMetrics(const IngestOutcome& outcome, size_t dims, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
