#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span log of a traced run. The benchmark records a span
/// around each call it makes into a layer's public function; spans of
/// one request share a request id and point at the span that caused
/// them. Nothing is written until the run ends (WriteJsonl).
/// Thread-safe.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int64_t kNoParent = -1;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };

  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span starting now; returns its id.
  int64_t Begin(const char* name, uint64_t request, int64_t parent);
  /// Opens a span with an explicit start (an open-loop request's
  /// scheduled send time).
  int64_t BeginAt(const char* name, Clock::time_point start,
                  uint64_t request, int64_t parent);
  /// Closes span `id` now.
  void End(int64_t id);

  /// Self time in seconds summed per span name: each span's duration
  /// minus the part of it that its children cover.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Median, over root spans that have children, of the share of the
  /// root's duration its children do not cover, in percent.
  double MedianUnattributedPct() const;

  /// Writes `header` (one JSON line) and then one JSON line per span.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  /// Per span, the length of the union of its children's intervals
  /// clipped to the span. Caller holds mu_.
  std::vector<int64_t> CoveredNs() const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log makes it a no-op, so untraced runs pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             int64_t parent = SpanLog::kNoParent)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, request, parent)
                           : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
