#include "fingerprint.h"

#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint HostFingerprint(std::string commit, std::string source_digest) {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  f.cpu_model = CpuModel();
  f.compiler = PERFBENCH_COMPILER;
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.flags = PERFBENCH_FLAGS;
  f.commit = commit.empty() ? "unknown" : std::move(commit);
  f.source_digest = source_digest.empty() ? "unknown" : std::move(source_digest);
  return f;
}

}  // namespace perfbench
