#ifndef KNMATCH_DISKALGO_DISK_AD_H_
#define KNMATCH_DISKALGO_DISK_AD_H_

#include <span>

#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/packed_column_store.h"

namespace knmatch {

class QueryContext;

/// Disk-based AD algorithm (Section 4.1): the FKNMatchAD control loop
/// over a disk column organization. One template serves all four,
/// explicitly instantiated in disk_ad.cc:
///  - ColumnStore: sorted runs on pages. Every cursor direction gets its
///    own I/O stream, so consecutive reads within a direction are
///    page-buffered and forward runs are sequential — the property the
///    paper highlights ("FKNMatchAD accesses the pages sequentially
///    when searching forwards").
///  - PackedColumnStore: the same runs bit-packed; page counts shrink by
///    the compression ratio.
///  - BTreeColumns: one B+-tree per dimension; lower-bound seeks cost a
///    charged root-to-leaf traversal.
///  - SnapshotColumns: one frozen epoch of the live-ingest index. Its
///    cursors traverse immutable snapshots, so queries run concurrently
///    with the single writer.
/// Answers and attribute counts are bit-identical across the four, and
/// to the in-memory AdSearcher. Page-access counts and modelled I/O
/// time are read off the shared DiskSimulator by the caller (reset its
/// counters around a query). Concurrent queries are safe while the
/// columns do not change: each call leases its own I/O streams on the
/// thread-safe simulator and releases them when it returns.
///
/// Class template argument deduction picks the organization:
/// `DiskAdSearcher ad(columns);`.
template <typename Columns>
class DiskAdSearcher {
 public:
  /// Searches `columns`; they must outlive the searcher.
  explicit DiskAdSearcher(const Columns& columns) : columns_(columns) {}

  /// Disk-based KNMatchAD. Optional `ctx` governs the query (deadline,
  /// cancellation, attribute/page/scratch budgets); on a trip the
  /// search unwinds and returns the context's typed trip status, with
  /// the partial result in ctx->trip().
  Result<KnMatchResult> KnMatch(std::span<const Value> query, size_t n,
                                size_t k, QueryContext* ctx = nullptr) const;

  /// Disk-based FKNMatchAD; `ctx` as above.
  Result<FrequentKnMatchResult> FrequentKnMatch(std::span<const Value> query,
                                                size_t n0, size_t n1,
                                                size_t k,
                                                QueryContext* ctx =
                                                    nullptr) const;

 private:
  const Columns& columns_;
};

}  // namespace knmatch

#endif  // KNMATCH_DISKALGO_DISK_AD_H_
