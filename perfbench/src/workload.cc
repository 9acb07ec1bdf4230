#include "workload.h"

#include <fstream>
#include <string>

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"batch_exact", "ingest_mixed"};
  return names;
}

bool RunWorkload(RunContext* ctx) {
  const std::string& w = ctx->cfg.workload;
  if (w == "batch_exact") {
    RunBatchExact(ctx);
  } else if (w == "ingest_mixed") {
    RunIngestMixed(ctx);
  } else {
    return false;
  }
  if (ctx->cfg.trace) {
    ctx->report.Set("harness.unattributed_pct", ctx->spans.MedianUnattributedPct());
  }
  ctx->report.Set("peak_rss_mb", PeakRssMb());
  return true;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

}  // namespace perfbench
