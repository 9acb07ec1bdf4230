#include "knmatch/diskalgo/btree_ad.h"

#include <cassert>
#include <utility>
#include <vector>

#include "knmatch/core/sorted_columns.h"

namespace knmatch {

BTreeColumns::BTreeColumns(const Dataset& db, DiskSimulator* disk) {
  // Reuse the in-memory sort, then bulk load each tree. BulkLoad wants
  // packed (value, pid) entries, so reassemble them from the SoA
  // columns into a per-dimension staging vector (build-time only).
  SortedColumns sorted(db);
  trees_.reserve(db.dims());
  std::vector<ColumnEntry> column(db.size());
  for (size_t dim = 0; dim < db.dims(); ++dim) {
    for (size_t i = 0; i < column.size(); ++i) {
      column[i] = sorted.entry(dim, i);
    }
    auto tree = std::make_unique<BPlusTree>(disk);
    tree->BulkLoad(column);
    trees_.push_back(std::move(tree));
  }
}

Status BTreeColumns::InsertPoint(PointId pid,
                                 std::span<const Value> coords) {
  assert(coords.size() == trees_.size());
  for (size_t dim = 0; dim < trees_.size(); ++dim) {
    Status s = trees_[dim]->Insert(ColumnEntry{coords[dim], pid});
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace knmatch
