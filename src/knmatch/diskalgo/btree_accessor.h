#ifndef KNMATCH_DISKALGO_BTREE_ACCESSOR_H_
#define KNMATCH_DISKALGO_BTREE_ACCESSOR_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch::internal {

/// AD-engine accessor over per-dimension B+-tree columns, for the
/// kernel's leaf-walking band path (LeafWalkingAccessor). Each cursor
/// direction owns an I/O stream and two leaf positions: where its walk
/// has read to (uncharged, ahead) and where its deliveries have charged
/// to (behind). A charged seek places both; the walk steps leaf to leaf
/// for free as the kernel emits, and each delivered leaf crossing
/// charges the same pages an iterator's Prev()/Next() would.
///
/// `Columns` is BTreeColumns (live trees) or SnapshotColumns (frozen
/// epoch of the ingest index) — both expose dims()/column_size() and a
/// tree(dim) whose seeks and leaf reads share one interface. The 2d
/// cursor streams and the locate stream are leased together and
/// released with the accessor.
template <typename Columns>
class BTreeColumnAccessor {
 public:
  BTreeColumnAccessor(const Columns& columns,
                      std::span<const Value> query)
      : columns_(columns),
        query_(query),
        streams_(columns.tree(0).OpenStreams(2 * columns.dims() + 1)),
        leaves_(2 * columns.dims()) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }
  size_t pid_bound() const {
    if constexpr (requires { columns_.pid_bound(); }) {
      return columns_.pid_bound();
    } else {
      return columns_.column_size();
    }
  }

  std::span<const ColumnEntry> SeekLeaf(uint32_t slot, size_t* offset) {
    const size_t dim = slot / 2;
    const BPlusTree::Iterator it =
        slot % 2 == 0
            ? columns_.tree(dim).SeekBefore(streams_[slot], query_[dim])
            : columns_.tree(dim).SeekLowerBound(streams_[slot], query_[dim]);
    if (!it.status().ok()) {
      status_ = it.status();
      return {};
    }
    assert(it.Valid() && "engine asked past the column end");
    const BPlusTree::LeafSpan leaf = it.leaf();
    leaves_[slot] = LeafPos{leaf.leaf, leaf.leaf};
    *offset = it.leaf_offset();
    return leaf.entries;
  }

  std::span<const ColumnEntry> StepLeaf(uint32_t slot, bool outward) {
    const BPlusTree::LeafSpan leaf =
        columns_.tree(slot / 2).NextLeaf(leaves_[slot].walk,
                                         Ascending(slot, outward));
    leaves_[slot].walk = leaf.leaf;
    return leaf.entries;
  }

  void ChargeLeafStep(uint32_t slot) {
    Result<uint32_t> leaf = columns_.tree(slot / 2).ChargeLeafStep(
        streams_[slot], leaves_[slot].charged, Ascending(slot, true));
    if (!leaf.ok()) {
      status_ = leaf.status();
      return;
    }
    leaves_[slot].charged = leaf.value();
  }

  size_t LocateLowerBound(size_t dim, Value v) {
    // A real root-to-leaf index traversal, charged to the per-query
    // locate stream (unlike the ColumnStore's free in-memory
    // directory).
    Result<size_t> rank =
        columns_.tree(dim).RankOf(streams_[2 * dims()], v);
    if (!rank.ok()) {
      status_ = rank.status();
      return 0;
    }
    return rank.value();
  }

  /// First traversal failure, latched; the engine stops once non-OK.
  const Status& status() const { return status_; }

 private:
  /// Slot 2*dim walks descending, 2*dim+1 ascending; inward reverses.
  static bool Ascending(uint32_t slot, bool outward) {
    return (slot % 2 == 1) == outward;
  }

  const Columns& columns_;
  std::span<const Value> query_;
  DiskSimulator::StreamLease streams_;
  /// Per slot: the leaf its walk has read to, and the leaf its
  /// delivered crossings have charged to.
  struct LeafPos {
    uint32_t walk = BPlusTree::kNoLeaf;
    uint32_t charged = BPlusTree::kNoLeaf;
  };
  std::vector<LeafPos> leaves_;
  Status status_;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_DISKALGO_BTREE_ACCESSOR_H_
