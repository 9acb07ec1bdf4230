#ifndef KNMATCH_CORE_AD_FRONTEND_H_
#define KNMATCH_CORE_AD_FRONTEND_H_

#include <span>
#include <type_traits>
#include <utility>

#include "knmatch/common/status.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/core/query_context.h"
#include "knmatch/obs/trace.h"

namespace knmatch::internal {

/// The query sequence every AD front end shares — the in-memory
/// AdSearcher (cold and warm-started) and each DiskAdSearcher<Columns>.
/// Checks (n0, n1, k) and the optional weights against `column_size` x
/// `dims` data, then calls `search(out)`, which arms the context, runs
/// the search into `out` and returns a non-OK status when that produced
/// no answer: the accessor's latched read failure, or a warm start that
/// declined. The unwind reports a governance trip first — its partial
/// result is in ctx->trip() — and then that status. A k-n-match query
/// is the n0 == n1 case.
template <typename Search>
Result<AdOutput> RunAdQuery(size_t column_size, size_t dims,
                            std::span<const Value> query, size_t n0,
                            size_t n1, size_t k,
                            std::span<const Value> weights,
                            QueryContext* ctx, Search&& search) {
  Status s = ValidateMatchParams(column_size, dims, query.size(), n0, n1, k);
  if (s.ok()) s = ValidateAdWeights(weights, dims);
  if (!s.ok()) return s;
  AdOutput out;
  const Status read = search(out);
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();
  if (!read.ok()) return read;
  return out;
}

/// Packages `out` as `R`, the calling entry point's result type —
/// KnMatchResult or FrequentKnMatchResult. Moves the answer sets out of
/// `out` and leaves its cost counters readable. A k-n-match query ran
/// with n0 == n1, so its answer is set 0; a frequent query keeps every
/// per-n set and ranks the points by how many sets they appear in
/// (traced as the rank phase).
template <typename R>
R PackageAdAnswer(AdOutput& out, size_t k) {
  R result;
  result.attributes_retrieved = out.attributes_retrieved;
  result.bound = std::move(out.bound);
  if constexpr (std::is_same_v<R, KnMatchResult>) {
    result.matches = std::move(out.per_n_sets[0]);
  } else {
    result.per_n_sets = std::move(out.per_n_sets);
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result);
  }
  return result;
}

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_FRONTEND_H_
