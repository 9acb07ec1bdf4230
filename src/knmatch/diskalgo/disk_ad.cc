#include "knmatch/diskalgo/disk_ad.h"

#include <span>

#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_frontend.h"
#include "knmatch/core/query_context.h"
#include "knmatch/diskalgo/btree_accessor.h"
#include "knmatch/obs/catalog.h"

namespace knmatch {

namespace {

/// AD-engine accessor over a paged sorted column store (ColumnStore or
/// PackedColumnStore, which decodes entries from packed blocks instead
/// of copying them out of raw pages). One I/O stream per direction
/// cursor (2 per dimension), identified by the engine-supplied slot, so
/// each direction's page buffer and sequential-run detection are
/// independent.
template <typename Store>
class PagedColumnAccessor {
 public:
  explicit PagedColumnAccessor(const Store& columns)
      : columns_(columns), streams_(columns.OpenStreams(2 * columns.dims())) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }

  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot) {
    Result<ColumnEntry> e = columns_.ReadEntry(streams_[slot], dim, idx);
    if (!e.ok()) {
      status_ = e.status();
      return ColumnEntry{};  // the engine discards it once status() trips
    }
    return e.value();
  }

  /// Kernel block refill: page-granular — the store bounds the run to
  /// the page holding `idx`, so the one charged ReadPage here costs
  /// exactly what the per-entry path's first read of that page would,
  /// and every further entry served is one the per-entry path would
  /// have re-read from the same page for free.
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) {
    Result<size_t> n = columns_.ReadRun(streams_[slot], dim, idx, len,
                                        slot % 2 == 0, values, pids);
    if (!n.ok()) {
      status_ = n.status();
      return 0;
    }
    return n.value();
  }

  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

  /// First read failure, latched; the engine stops once this is non-OK.
  const Status& status() const { return status_; }

 private:
  const Store& columns_;
  DiskSimulator::StreamLease streams_;
  Status status_;
};

/// BTreeColumns and SnapshotColumns: one tree per dimension.
template <typename Columns>
constexpr bool kTreeColumns = requires(const Columns& c) { c.tree(0); };

/// The body of both entry points of every instantiation. The columns
/// type picks the accessor, the simulator the page budget arms on, and
/// the cost counters the query feeds (the sorted-run stores report as
/// disk AD, the tree organizations as B+-tree AD).
template <typename R, typename Columns>
Result<R> DiskAdQuery(const Columns& columns, std::span<const Value> query,
                      size_t n0, size_t n1, size_t k, QueryContext* ctx) {
  Result<internal::AdOutput> out = internal::RunAdQuery(
      columns.column_size(), columns.dims(), query, n0, n1, k, {}, ctx,
      [&](internal::AdOutput& o) {
        const obs::Catalog& cat = obs::Cat();
        if constexpr (kTreeColumns<Columns>) {
          if (ctx != nullptr) ctx->ArmPages(columns.tree(0).disk());
          internal::BTreeColumnAccessor<Columns> acc(columns, query);
          o = internal::RunAdSearch(acc, query, n0, n1, k, {}, nullptr, ctx);
          cat.attrs_ad_btree->Add(o.attributes_retrieved);
          cat.pops_ad_btree->Add(o.heap_pops);
          return acc.status();
        } else {
          if (ctx != nullptr) ctx->ArmPages(columns.disk());
          PagedColumnAccessor<Columns> acc(columns);
          o = internal::RunAdSearch(acc, query, n0, n1, k, {}, nullptr, ctx);
          cat.attrs_ad_disk->Add(o.attributes_retrieved);
          cat.pops_ad_disk->Add(o.heap_pops);
          return acc.status();
        }
      });
  if (!out.ok()) return out.status();
  return internal::PackageAdAnswer<R>(out.value(), k);
}

}  // namespace

template <typename Columns>
Result<KnMatchResult> DiskAdSearcher<Columns>::KnMatch(
    std::span<const Value> query, size_t n, size_t k,
    QueryContext* ctx) const {
  return DiskAdQuery<KnMatchResult>(columns_, query, n, n, k, ctx);
}

template <typename Columns>
Result<FrequentKnMatchResult> DiskAdSearcher<Columns>::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  return DiskAdQuery<FrequentKnMatchResult>(columns_, query, n0, n1, k, ctx);
}

template class DiskAdSearcher<ColumnStore>;
template class DiskAdSearcher<PackedColumnStore>;
template class DiskAdSearcher<BTreeColumns>;
template class DiskAdSearcher<SnapshotColumns>;

}  // namespace knmatch
