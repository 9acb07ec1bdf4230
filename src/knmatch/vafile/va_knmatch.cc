#include "knmatch/vafile/va_knmatch.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/core/query_context.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

namespace {

// Approximations between phase-1 governance rechecks (each costs d
// quantized attribute reads).
constexpr uint64_t kApproxStride = 64;

// Charges a tripped VA query's cost to the catalog/trace and records
// the harvested partial sets, mirroring the untripped accounting.
Status HarvestVaTrip(QueryContext* ctx, uint64_t attributes,
                     uint64_t points_refined,
                     std::vector<std::vector<Neighbor>> partial) {
  ctx->trip().attributes_retrieved = attributes;
  ctx->StorePartialSets(&partial);
  obs::Cat().attrs_va->Add(attributes);
  obs::Cat().va_points_refined->Add(points_refined);
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += attributes;
    trace->counters().points_refined += points_refined;
  }
  return ctx->trip_status();
}

}  // namespace

Result<VaFrequentKnMatchResult> VaKnMatchSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  Status s = ValidateMatchParams(va_.size(), va_.dims(), query.size(), n0,
                                 n1, k);
  if (!s.ok()) return s;
  if (va_.size() != rows_.size() || va_.dims() != rows_.dims()) {
    return Status::FailedPrecondition(
        "VA-file and row store describe different datasets");
  }

  const size_t d = va_.dims();
  const size_t range = n1 - n0 + 1;

  // Phase 1: scan the approximation, maintain per-n thresholds (k-th
  // smallest upper bound seen so far) and collect candidates.
  using UbHeap = BoundedTopK<PointId, Value, PointId>;
  std::vector<UbHeap> thresholds;
  thresholds.reserve(range);
  for (size_t i = 0; i < range; ++i) thresholds.emplace_back(k);

  const bool governed = ctx != nullptr && ctx->governed();
  if (governed) ctx->ArmPages(va_.disk());
  std::vector<PointId> candidates;
  std::vector<Value> lb(d), ub(d);
  uint64_t approx_seen = 0;
  const DiskSimulator::StreamLease va_streams = va_.OpenStreams(1);
  const size_t va_stream = va_streams[0];
  Status io = va_.ForEachApproxWhile(va_stream, [&](PointId pid,
                                                    std::span<const uint32_t>
                                                        codes) {
    for (size_t dim = 0; dim < d; ++dim) {
      const Value lo = va_.CellLower(dim, codes[dim]);
      const Value hi = va_.CellUpper(dim, codes[dim]);
      const Value q = query[dim];
      if (q < lo) {
        lb[dim] = lo - q;
      } else if (q > hi) {
        lb[dim] = q - hi;
      } else {
        lb[dim] = 0;
      }
      ub[dim] = std::max(std::abs(q - lo), std::abs(q - hi));
    }
    std::sort(lb.begin(), lb.end());
    std::sort(ub.begin(), ub.end());

    bool candidate = false;
    for (size_t n = n0; n <= n1; ++n) {
      UbHeap& heap = thresholds[n - n0];
      // Threshold is +inf until k upper bounds have been seen.
      if (!candidate &&
          (!heap.full() || lb[n - 1] <= heap.threshold())) {
        candidate = true;
      }
      heap.Offer(ub[n - 1], pid, pid);
    }
    if (candidate) candidates.push_back(pid);
    ++approx_seen;
    if (governed && approx_seen % kApproxStride == 0) {
      return ctx->Recheck(approx_seen * d, 0);
    }
    return true;
  });
  if (!io.ok()) return io;
  if (governed && ctx->tripped()) {
    // Tripped before refinement: no exact candidates yet, so the
    // partial answer is the correctly-shaped empty set per n.
    return HarvestVaTrip(ctx, approx_seen * d, 0,
                         std::vector<std::vector<Neighbor>>(range));
  }

  // Phase 2: fetch candidates (ascending pid, so co-located candidates
  // share page reads) and compute exact n-match differences.
  using Accumulator = BoundedTopK<PointId, Value, PointId>;
  std::vector<Accumulator> per_n;
  per_n.reserve(range);
  for (size_t i = 0; i < range; ++i) per_n.emplace_back(k);

  const DiskSimulator::StreamLease row_streams = rows_.OpenStreams(1);
  const size_t row_stream = row_streams[0];
  std::vector<Value> buf, diffs;
  uint64_t refined = 0;
  {
    obs::TraceSpan span(obs::Phase::kVerify);
    for (const PointId pid : candidates) {
      // Each refinement is a random row read — expensive enough that a
      // per-candidate recheck costs nothing by comparison.
      if (governed &&
          !ctx->Recheck(static_cast<uint64_t>(va_.size()) * d + refined * d,
                        0)) {
        break;
      }
      Result<std::span<const Value>> p =
          rows_.ReadRow(row_stream, pid, &buf);
      if (!p.ok()) return p.status();
      SortedAbsDifferences(p.value(), query, &diffs);
      for (size_t n = n0; n <= n1; ++n) {
        per_n[n - n0].Offer(diffs[n - 1], pid, pid);
      }
      ++refined;
    }
  }
  if (governed && ctx->tripped()) {
    std::vector<std::vector<Neighbor>> partial(range);
    for (size_t i = 0; i < range; ++i) {
      for (auto& e : per_n[i].TakeSorted()) {
        partial[i].push_back(Neighbor{e.item, e.score});
      }
    }
    return HarvestVaTrip(ctx,
                         static_cast<uint64_t>(va_.size()) * d + refined * d,
                         refined, std::move(partial));
  }

  VaFrequentKnMatchResult result;
  result.points_refined = candidates.size();
  result.base.per_n_sets.resize(range);
  for (size_t i = 0; i < range; ++i) {
    for (auto& e : per_n[i].TakeSorted()) {
      result.base.per_n_sets[i].push_back(Neighbor{e.item, e.score});
    }
  }
  // Phase 1 reads every approximation (c*d quantized attributes);
  // phase 2 reads d exact attributes per refined point.
  result.base.attributes_retrieved =
      static_cast<uint64_t>(va_.size()) * d +
      static_cast<uint64_t>(candidates.size()) * d;
  obs::Cat().attrs_va->Add(result.base.attributes_retrieved);
  obs::Cat().va_points_refined->Add(result.points_refined);
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved +=
        result.base.attributes_retrieved;
    trace->counters().points_refined += result.points_refined;
  }
  {
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result.base);
  }
  return result;
}

}  // namespace knmatch
