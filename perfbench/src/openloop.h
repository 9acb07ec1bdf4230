#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// One open-loop burst: Poisson arrivals at `rate` for `seconds`,
/// drained by `connections` keep-alive clients. Each request is timed
/// from its scheduled send, so a stall shows in every request queued
/// behind it.
struct OpenLoopConfig {
  uint16_t port = 0;
  double rate = 100;
  double seconds = 1;
  size_t connections = 1;
  uint64_t seed = 1;
  SpanLog* spans = nullptr;
};

/// Request i of a burst carries body_for(i).
struct OpenLoopSample {
  double latency_ms = 0;  // scheduled send -> response read
  float late_ms = 0;      // scheduled send -> actual send
  int16_t status = 0;     // HTTP status; 0 on a transport error
};

struct OpenLoopResult {
  std::vector<OpenLoopSample> samples;  // in schedule order
  std::vector<std::string> bodies;      // response bodies, index-aligned
};

OpenLoopResult RunOpenLoop(const OpenLoopConfig& config,
                           const std::function<std::string(uint64_t)>& body_for);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
