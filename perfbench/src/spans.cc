#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "stats.h"

namespace perfbench {

int64_t SpanLog::Begin(const char* name, uint64_t request, int64_t parent) {
  return BeginAt(name, Clock::now(), request, parent);
}

int64_t SpanLog::BeginAt(const char* name, Clock::time_point start,
                         uint64_t request, int64_t parent) {
  const int64_t start_ns = ToNs(start);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, start_ns, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::End(int64_t id) {
  const int64_t end_ns = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::vector<int64_t> SpanLog::CoveredNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> covered(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered[i] += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered[i] += cur_hi - cur_lo;
  }
  return covered;
}

std::map<std::string, double> SpanLog::SelfSecondsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t> covered = CoveredNs();
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += static_cast<double>(dur - covered[i]) * 1e-9;
  }
  return self;
}

double SpanLog::MedianUnattributedPct() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t> covered = CoveredNs();
  std::vector<bool> has_children(spans_.size(), false);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) has_children[static_cast<size_t>(s.parent)] = true;
  }
  std::vector<double> shares;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoParent || !has_children[i] || dur <= 0) continue;
    shares.push_back(100.0 * static_cast<double>(dur - covered[i]) /
                     static_cast<double>(dur));
  }
  return Median(std::move(shares));
}

bool SpanLog::WriteJsonl(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << header << '\n';
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
