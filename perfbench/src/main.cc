// perfbench: the repository benchmark. Runs one named workload against
// the knmatch library's public API and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer metrics.
//
//   perfbench --workload batch_exact --seed 1 --seconds 16 --trace 0
//
// perfbench/run.py builds this binary from the checkout and runs it;
// perfbench/README.md documents the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "fingerprint.h"
#include "knmatch/serve/json.h"
#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--commit SHA] [--source-digest HEX] "
               "[--tiny]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string Stamp(const perfbench::RunConfig& cfg, const perfbench::Fingerprint& f) {
  knmatch::serve::JsonWriter w;
  w.BeginObject().Key("perfbench").BeginObject();
  w.Key("workload").String(cfg.workload);
  w.Key("seed").Uint(cfg.seed);
  w.Key("seconds").Number(cfg.seconds);
  w.Key("trace").Bool(cfg.trace);
  w.Key("fingerprint").BeginObject();
  w.Key("nproc").Uint(f.nproc);
  w.Key("cpu_model").String(f.cpu_model);
  w.Key("compiler").String(f.compiler);
  w.Key("build_type").String(f.build_type);
  w.Key("flags").String(f.flags);
  w.Key("commit").String(f.commit);
  w.Key("source_digest").String(f.source_digest);
  w.EndObject().EndObject().EndObject();
  return w.Take();
}

/// CPU time the hypervisor took from this machine (the "steal" column
/// of /proc/stat) and all CPU time, in clock ticks since boot.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string trace_out, commit, digest;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0 < s <= 600) and --trace 0|1 are required");
  }

  perfbench::RunContext ctx(cfg);
  const auto [steal0, total0] = StealAndTotalTicks();
  try {
    if (!perfbench::RunWorkload(&ctx)) return Usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // Host contention during the run, for reading the figures: timing
  // metrics move with it.
  const auto [steal1, total1] = StealAndTotalTicks();
  char steal_note[96];
  std::snprintf(steal_note, sizeof(steal_note), "host steal during the run = %.1f%% of CPU time",
                total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0);
  ctx.report.Note(steal_note);
  const auto& defs =
      cfg.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  const auto missing = ctx.report.Missing(defs);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload.c_str(),
                 missing.front().c_str());
    return 1;
  }
  const std::string stamp = Stamp(cfg, perfbench::HostFingerprint(commit, digest));
  if (cfg.trace && !trace_out.empty() && !ctx.spans.WriteJsonl(trace_out, stamp)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", stamp.c_str());
  for (const std::string& note : ctx.report.notes()) std::printf("# %s\n", note.c_str());
  if (cfg.trace) {
    for (const auto& [name, seconds] : ctx.spans.SelfSecondsByName()) {
      std::printf("# span self time %s = %.6f s\n", name.c_str(), seconds);
    }
  }
  for (const auto& d : defs) {
    std::printf("# %s = %.9g %s\n", d.name, ctx.report.Get(d.name), d.unit);
  }
  std::printf("%s\n", ctx.report.ResultJson(ctx.wrong == 0, ctx.attempted, ctx.failed, defs).c_str());
  return 0;
}
