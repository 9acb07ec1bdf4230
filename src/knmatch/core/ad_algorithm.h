#ifndef KNMATCH_CORE_AD_ALGORITHM_H_
#define KNMATCH_CORE_AD_ALGORITHM_H_

#include <optional>
#include <span>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/packed_columns.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch {

class QueryContext;

namespace internal {
class AdScratch;
}  // namespace internal

/// Validates optional per-dimension AD weights: either empty or one
/// strictly positive value per dimension. Shared by the single-query
/// and batch entry points.
Status ValidateAdWeights(std::span<const Value> weights, size_t dims);

/// In-memory AD (Ascending Difference) searcher — the paper's optimal
/// algorithms KNMatchAD and FKNMatchAD over per-dimension sorted
/// columns.
///
/// Construction sorts every dimension once (O(d c log c)); each query
/// then retrieves attributes in ascending order of their difference to
/// the query and stops as early as correctness allows — provably the
/// minimum number of attribute retrievals (Theorems 3.2 / 3.3).
///
/// Example:
/// ```
/// AdSearcher searcher(db);
/// auto r = searcher.FrequentKnMatch(query, /*n0=*/4, /*n1=*/db.dims(),
///                                   /*k=*/10);
/// if (r.ok()) { ... r.value().matches ... }
/// ```
class AdSearcher {
 public:
  /// Builds the sorted-column organization for `db`. The dataset must
  /// outlive the searcher.
  explicit AdSearcher(const Dataset& db)
      : db_(db), columns_(db) {}

  /// Algorithm KNMatchAD (Fig. 4): the k points with smallest n-match
  /// difference to `query`, in ascending difference order.
  ///
  /// Optional `weights` (one strictly positive value per dimension)
  /// scale the per-dimension differences before the n-th-smallest
  /// selection — the weighted extension of the matching model. Scaling
  /// each column's differences by a positive constant preserves their
  /// ascending order, so the AD algorithm's correctness and optimality
  /// carry over unchanged.
  ///
  /// Optional `scratch` reuses a caller-owned working arena (appearance
  /// table, cursor heap) across queries — the answer is identical; only
  /// per-query setup cost changes. A scratch must not be shared by
  /// concurrent queries; the batch executor keeps one per worker.
  ///
  /// Optional `ctx` governs the query (deadline, cancellation,
  /// budgets): on a trip the search unwinds and returns the context's
  /// typed trip status, with the partial result in ctx->trip().
  ///
  /// Optional `approx` trades recall for speed (see ApproxPolicy):
  /// epsilon > 0 arms the bounded-recall (1+eps) early stop,
  /// column_sample < 1 searches a seeded dimension subset and re-ranks
  /// candidates exactly. The result's `bound` reports the per-query
  /// guaranteed recall. An exact (default) `approx` falls back to the
  /// context's policy when one is set there; exact everywhere means the
  /// bit-identical exact path.
  Result<KnMatchResult> KnMatch(std::span<const Value> query, size_t n,
                                size_t k,
                                std::span<const Value> weights = {},
                                internal::AdScratch* scratch = nullptr,
                                QueryContext* ctx = nullptr,
                                const ApproxPolicy& approx = {}) const;

  /// Algorithm FKNMatchAD (Fig. 6): the k points appearing most often in
  /// the k-n-match answer sets for n in [n0, n1]. `weights`, `scratch`,
  /// `ctx` and `approx` as above.
  Result<FrequentKnMatchResult> FrequentKnMatch(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      std::span<const Value> weights = {},
      internal::AdScratch* scratch = nullptr,
      QueryContext* ctx = nullptr, const ApproxPolicy& approx = {}) const;

  /// Warm-started KNMatchAD: `seeds` (candidate answer pids from a
  /// nearby cached query) let the search skip the kernel's threshold
  /// discovery via the seeded range-count path (see core/ad_warm.h).
  /// Returns nullopt when the seeded path declines — invalid
  /// parameters, degenerate seeds, a tripped scan budget, or a
  /// difference tie that could expose cold pop order — in which case
  /// the caller must run KnMatch cold. A returned result is
  /// bit-identical to the cold one.
  std::optional<KnMatchResult> KnMatchSeeded(
      std::span<const Value> query, size_t n, size_t k,
      std::span<const Value> weights, std::span<const PointId> seeds,
      internal::AdScratch* scratch = nullptr) const;

  /// Warm-started FKNMatchAD; same contract as KnMatchSeeded.
  std::optional<FrequentKnMatchResult> FrequentKnMatchSeeded(
      std::span<const Value> query, size_t n0, size_t n1, size_t k,
      std::span<const Value> weights, std::span<const PointId> seeds,
      internal::AdScratch* scratch = nullptr) const;

  /// The underlying sorted columns (exposed for tests and tools).
  const SortedColumns& columns() const { return columns_; }

  /// Builds the delta-encoded bit-packed rendering of the columns and
  /// routes exact (and epsilon-stopped) queries through it: the kernel
  /// decodes runs on the fly instead of walking the flat SoA arrays.
  /// Answers are bit-identical; the column working set shrinks by the
  /// compression ratio. Idempotent. The flat columns stay resident (the
  /// warm-start and sampled paths read them directly).
  void EnablePackedColumns();
  /// Discards the packed rendering; queries walk the flat columns again.
  void DisablePackedColumns() { packed_.reset(); }
  bool packed_enabled() const { return packed_.has_value(); }
  /// The packed columns, or nullptr when not enabled (tests/tools).
  const PackedColumns* packed_columns() const {
    return packed_.has_value() ? &*packed_ : nullptr;
  }

 private:
  // The shared bodies of the two entry-point pairs; R is KnMatchResult
  // (k-n-match, the n0 == n1 case) or FrequentKnMatchResult.
  template <typename R>
  Result<R> Query(std::span<const Value> query, size_t n0, size_t n1,
                  size_t k, std::span<const Value> weights,
                  internal::AdScratch* scratch, QueryContext* ctx,
                  const ApproxPolicy& approx) const;
  template <typename R>
  std::optional<R> QuerySeeded(std::span<const Value> query, size_t n0,
                               size_t n1, size_t k,
                               std::span<const Value> weights,
                               std::span<const PointId> seeds,
                               internal::AdScratch* scratch) const;

  const Dataset& db_;
  SortedColumns columns_;
  /// Engaged by EnablePackedColumns(); mutable state is confined to
  /// setup (queries only read it), so the searcher stays shareable
  /// across threads once configured.
  std::optional<PackedColumns> packed_;
};

}  // namespace knmatch

#endif  // KNMATCH_CORE_AD_ALGORITHM_H_
