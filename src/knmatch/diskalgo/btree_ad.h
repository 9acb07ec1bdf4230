#ifndef KNMATCH_DISKALGO_BTREE_AD_H_
#define KNMATCH_DISKALGO_BTREE_AD_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/storage/bplus_tree.h"

namespace knmatch {

/// The B+-tree column organizations DiskAdSearcher (disk_ad.h) runs
/// over, beside the sorted-run ColumnStore and PackedColumnStore.
///
/// One B+-tree per dimension — the indexed disk organization a
/// production deployment would maintain instead of rebuilding sorted
/// runs (ColumnStore) offline: inserts keep the columns current, and
/// lower-bound seeks cost a root-to-leaf traversal instead of an
/// in-memory directory lookup.
class BTreeColumns {
 public:
  /// Bulk loads one tree per dimension of `db`.
  BTreeColumns(const Dataset& db, DiskSimulator* disk);

  /// Dimensionality d.
  size_t dims() const { return trees_.size(); }
  /// Cardinality c.
  size_t column_size() const {
    return trees_.empty() ? 0 : trees_[0]->size();
  }

  /// The tree indexing dimension `dim`.
  const BPlusTree& tree(size_t dim) const { return *trees_[dim]; }
  BPlusTree& tree(size_t dim) { return *trees_[dim]; }

  /// Reflects the insertion of a new point (its id is the new
  /// cardinality) across all dimension trees. Stops at the first tree
  /// whose descent fails; earlier dimensions stay inserted, so treat a
  /// failure as grounds for a rebuild.
  Status InsertPoint(PointId pid, std::span<const Value> coords);

 private:
  std::vector<std::unique_ptr<BPlusTree>> trees_;
};

/// A frozen set of per-dimension B+-tree snapshots (one epoch of the
/// live-ingest index) presented through the same columns interface as
/// BTreeColumns, so DiskAdSearcher's tree accessor drives either. Cheap
/// to copy.
///
/// Unlike a bulk-loaded store, the live pid space is sparse (erases
/// leave holes, inserts extend it), so the cardinality no longer bounds
/// the ids: `pid_bound` must be an exclusive upper bound on every pid
/// in the trees — it sizes the AD search's per-point appearance table.
class SnapshotColumns {
 public:
  explicit SnapshotColumns(std::vector<BPlusTree::Snapshot> trees,
                           size_t pid_bound = 0)
      : trees_(std::move(trees)), pid_bound_(pid_bound) {}

  size_t dims() const { return trees_.size(); }
  size_t column_size() const {
    return trees_.empty() ? 0 : trees_[0].size();
  }
  size_t pid_bound() const { return std::max(pid_bound_, column_size()); }
  const BPlusTree::Snapshot& tree(size_t dim) const { return trees_[dim]; }

 private:
  std::vector<BPlusTree::Snapshot> trees_;
  size_t pid_bound_ = 0;
};

}  // namespace knmatch

#endif  // KNMATCH_DISKALGO_BTREE_AD_H_
