#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <cstddef>
#include <string>

namespace perfbench {

/// What a result was measured on and built from; every result carries
/// it so that numbers from different hosts or builds are never compared
/// as if they were alike.
struct Fingerprint {
  size_t nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string flags;
  /// Git commit of the checkout, or "unknown" outside a git tree.
  std::string commit;
  /// Digest of the sources the binary was built from (set by run.py).
  std::string source_digest;
};

/// Reads the host half from the running system and the build half from
/// the values compiled in.
Fingerprint HostFingerprint(std::string commit, std::string source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
