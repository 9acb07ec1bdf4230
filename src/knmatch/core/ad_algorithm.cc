#include "knmatch/core/ad_algorithm.h"

#include <chrono>
#include <type_traits>
#include <utility>

#include "knmatch/core/ad_approx.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_frontend.h"
#include "knmatch/core/ad_warm.h"
#include "knmatch/core/query_context.h"
#include "knmatch/obs/catalog.h"

namespace knmatch {

namespace {

using Clock = std::chrono::steady_clock;

// One registry interaction per query: the AD engine tallies locally and
// the totals land here, which is what keeps instrumentation overhead on
// the in-memory hot path under the bench_obs_overhead budget. R picks
// the entry point's query counter and latency histogram.
template <typename R>
void RecordMemoryAdQuery(const internal::AdOutput& out,
                         Clock::time_point start) {
  if (!obs::Enabled()) return;
  const obs::Catalog& cat = obs::Cat();
  constexpr bool kFrequent = std::is_same_v<R, FrequentKnMatchResult>;
  (kFrequent ? cat.queries_fknmatch : cat.queries_knmatch)->Add();
  cat.attrs_ad_memory->Add(out.attributes_retrieved);
  cat.pops_ad_memory->Add(out.heap_pops);
  const auto elapsed = Clock::now() - start;
  (kFrequent ? cat.latency_fknmatch : cat.latency_knmatch)
      ->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
}

// Packages a finished query and then records it, so a frequent query's
// latency includes its rank pass.
template <typename R>
R PackageAndRecord(internal::AdOutput& out, size_t k,
                   Clock::time_point start) {
  R result = internal::PackageAdAnswer<R>(out, k);
  RecordMemoryAdQuery<R>(out, start);
  return result;
}

// The policy in force for one query: an explicit non-exact `approx`
// parameter wins; otherwise a non-exact policy on the context applies
// (the batch/shard paths attach it there); otherwise exact.
const ApproxPolicy& EffectivePolicy(const ApproxPolicy& approx,
                                    const QueryContext* ctx) {
  if (!approx.exact()) return approx;
  if (ctx != nullptr && !ctx->approx_policy().exact()) {
    return ctx->approx_policy();
  }
  return approx;
}

void RecordApproxQuery(const internal::AdOutput& out,
                       const ApproxPolicy& policy) {
  if (!obs::Enabled() || policy.exact()) return;
  const obs::Catalog& cat = obs::Cat();
  if (policy.epsilon > 0) cat.approx_queries_epsilon->Add();
  if (policy.sampled()) cat.approx_queries_sampled->Add();
  if (out.bound.early_stopped) cat.approx_early_stops->Add();
  cat.approx_recall_bound->Observe(
      static_cast<uint64_t>(out.bound.guaranteed * 100.0));
}

}  // namespace

void AdSearcher::EnablePackedColumns() {
  if (!packed_.has_value()) packed_.emplace(columns_);
}

Status ValidateAdWeights(std::span<const Value> weights, size_t dims) {
  if (weights.empty()) return Status::OK();
  if (weights.size() != dims) {
    return Status::InvalidArgument(
        "weights must be empty or have one entry per dimension");
  }
  for (const Value w : weights) {
    if (!(w > 0)) {
      return Status::InvalidArgument(
          "AD weights must be strictly positive (a zero weight would "
          "make an entire column pop at difference 0; model an ignored "
          "dimension by dropping it instead)");
    }
  }
  return Status::OK();
}

template <typename R>
Result<R> AdSearcher::Query(std::span<const Value> query, size_t n0,
                            size_t n1, size_t k,
                            std::span<const Value> weights,
                            internal::AdScratch* scratch, QueryContext* ctx,
                            const ApproxPolicy& approx) const {
  const ApproxPolicy& policy = EffectivePolicy(approx, ctx);
  Clock::time_point start;
  Result<internal::AdOutput> out = internal::RunAdQuery(
      db_.size(), db_.dims(), query, n0, n1, k, weights, ctx,
      [&](internal::AdOutput& o) {
        // Memory queries read no pages; re-arm so a context reused
        // after a disk query does not count that query's reads against
        // this one.
        if (ctx != nullptr) ctx->ArmPages(nullptr);
        start = Clock::now();
        if (policy.sampled()) {
          o = internal::RunSampledAdSearch(db_, columns_, query, n0, n1, k,
                                           weights, policy, scratch, ctx);
        } else if (packed_.has_value()) {
          PackedColumnAccessor acc(*packed_);
          o = internal::RunAdSearch(acc, query, n0, n1, k, weights, scratch,
                                    ctx, policy);
        } else {
          internal::MemoryColumnAccessor acc(columns_);
          o = internal::RunAdSearch(acc, query, n0, n1, k, weights, scratch,
                                    ctx, policy);
        }
        RecordApproxQuery(o, policy);
        // A tripped query never reaches PackageAndRecord; count it here.
        if (ctx != nullptr && ctx->tripped()) RecordMemoryAdQuery<R>(o, start);
        return Status::OK();
      });
  if (!out.ok()) return out.status();
  return PackageAndRecord<R>(out.value(), k, start);
}

template <typename R>
std::optional<R> AdSearcher::QuerySeeded(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, std::span<const PointId> seeds,
    internal::AdScratch* scratch) const {
  Clock::time_point start;
  Result<internal::AdOutput> out = internal::RunAdQuery(
      db_.size(), db_.dims(), query, n0, n1, k, weights, /*ctx=*/nullptr,
      [&](internal::AdOutput& o) {
        start = Clock::now();
        std::optional<internal::AdOutput> seeded = internal::RunAdSearchSeeded(
            db_, columns_, query, n0, n1, k, weights, seeds, scratch);
        if (!seeded.has_value()) {
          return Status::FailedPrecondition("seeded search declined");
        }
        o = std::move(*seeded);
        return Status::OK();
      });
  if (!out.ok()) return std::nullopt;  // the caller runs the query cold
  return PackageAndRecord<R>(out.value(), k, start);
}

Result<KnMatchResult> AdSearcher::KnMatch(
    std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx, const ApproxPolicy& approx) const {
  return Query<KnMatchResult>(query, n, n, k, weights, scratch, ctx, approx);
}

Result<FrequentKnMatchResult> AdSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx, const ApproxPolicy& approx) const {
  return Query<FrequentKnMatchResult>(query, n0, n1, k, weights, scratch,
                                      ctx, approx);
}

std::optional<KnMatchResult> AdSearcher::KnMatchSeeded(
    std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights, std::span<const PointId> seeds,
    internal::AdScratch* scratch) const {
  return QuerySeeded<KnMatchResult>(query, n, n, k, weights, seeds, scratch);
}

std::optional<FrequentKnMatchResult> AdSearcher::FrequentKnMatchSeeded(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, std::span<const PointId> seeds,
    internal::AdScratch* scratch) const {
  return QuerySeeded<FrequentKnMatchResult>(query, n0, n1, k, weights, seeds,
                                            scratch);
}

}  // namespace knmatch
