#include "knmatch/vafile/va_knn.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

Result<KnMatchResult> VaKnnSearcher::Knn(std::span<const Value> query,
                                         size_t k) const {
  Status s =
      ValidateMatchParams(va_.size(), va_.dims(), query.size(), 1, 1, k);
  if (!s.ok()) return s;

  const size_t d = va_.dims();

  struct Candidate {
    Value lb;
    PointId pid;
  };
  std::vector<Candidate> candidates;
  BoundedTopK<PointId, Value, PointId> ub_heap(k);

  const DiskSimulator::StreamLease va_streams = va_.OpenStreams(1);
  const size_t va_stream = va_streams[0];
  Status io = va_.ForEachApprox(va_stream, [&](PointId pid,
                                               std::span<const uint32_t>
                                                   codes) {
    Value lb2 = 0, ub2 = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      const Value lo = va_.CellLower(dim, codes[dim]);
      const Value hi = va_.CellUpper(dim, codes[dim]);
      const Value q = query[dim];
      Value l = 0;
      if (q < lo) {
        l = lo - q;
      } else if (q > hi) {
        l = q - hi;
      }
      const Value u = std::max(std::abs(q - lo), std::abs(q - hi));
      lb2 += l * l;
      ub2 += u * u;
    }
    const Value lb = std::sqrt(lb2);
    if (!ub_heap.full() || lb <= ub_heap.threshold()) {
      candidates.push_back(Candidate{lb, pid});
    }
    ub_heap.Offer(std::sqrt(ub2), pid, pid);
  });
  if (!io.ok()) return io;

  // Phase 2: ascending lower bound with early termination.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.lb != b.lb) return a.lb < b.lb;
              return a.pid < b.pid;
            });

  BoundedTopK<PointId, Value, PointId> top(k);
  const DiskSimulator::StreamLease row_streams = rows_.OpenStreams(1);
  const size_t row_stream = row_streams[0];
  std::vector<Value> buf;
  last_points_refined_ = 0;
  {
    obs::TraceSpan span(obs::Phase::kVerify);
    for (const Candidate& cand : candidates) {
      if (top.full() && cand.lb > top.threshold()) break;
      Result<std::span<const Value>> row =
          rows_.ReadRow(row_stream, cand.pid, &buf);
      if (!row.ok()) return row.status();
      std::span<const Value> p = row.value();
      Value sum = 0;
      for (size_t dim = 0; dim < d; ++dim) {
        const Value diff = p[dim] - query[dim];
        sum += diff * diff;
      }
      top.Offer(std::sqrt(sum), cand.pid, cand.pid);
      ++last_points_refined_;
    }
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(va_.size()) * d + last_points_refined_ * d;
  obs::Cat().attrs_va->Add(result.attributes_retrieved);
  obs::Cat().va_points_refined->Add(last_points_refined_);
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += result.attributes_retrieved;
    trace->counters().points_refined += last_points_refined_;
  }
  return result;
}

}  // namespace knmatch
