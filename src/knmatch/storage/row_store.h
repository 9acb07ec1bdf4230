#ifndef KNMATCH_STORAGE_ROW_STORE_H_
#define KNMATCH_STORAGE_ROW_STORE_H_

#include <functional>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

/// Row-major heap file: points stored back to back in pid order, fixed
/// row width of dims() * sizeof(Value) bytes, no row spanning pages.
/// This is the layout the sequential-scan competitors read, and the file
/// the VA-file algorithm's refinement phase fetches points from.
class RowStore {
 public:
  /// Materializes `db` onto the simulated disk.
  RowStore(const Dataset& db, DiskSimulator* disk);

  /// Cardinality.
  size_t size() const { return size_; }
  /// Dimensionality.
  size_t dims() const { return dims_; }
  /// Number of pages the file occupies.
  size_t num_pages() const { return file_.num_pages(); }
  /// Rows stored per page.
  size_t rows_per_page() const { return rows_per_page_; }

  /// Opens an I/O accounting stream on the underlying disk.
  size_t OpenStream() const;
  /// Opens `count` streams for one query, released together when the
  /// lease dies.
  DiskSimulator::StreamLease OpenStreams(size_t count) const {
    return DiskSimulator::StreamLease(disk_, count);
  }

  /// The simulator this store charges its I/O to (for page-budget
  /// accounting via QueryContext::ArmPages).
  const DiskSimulator* disk() const { return disk_; }

  /// As ForEachRow, but `fn` returning false stops the scan early with
  /// an OK status — the cooperative early-exit the governance layer
  /// uses; no further pages are read.
  Status ForEachRowWhile(
      size_t stream,
      const std::function<bool(PointId, std::span<const Value>)>& fn) const;

  /// Reads the coordinates of `pid` (one page read, charged to
  /// `stream`). The returned span points into `*buf`. Fails (kDataLoss
  /// / kUnavailable) when the row's page cannot be read intact.
  Result<std::span<const Value>> ReadRow(size_t stream, PointId pid,
                                         std::vector<Value>* buf) const;

  /// Sequentially scans the whole file on `stream`, invoking
  /// `fn(pid, coordinates)` for every point in pid order. Stops at the
  /// first unreadable page and returns its error.
  Status ForEachRow(
      size_t stream,
      const std::function<void(PointId, std::span<const Value>)>& fn) const;

 private:
  size_t size_;
  size_t dims_;
  size_t rows_per_page_;
  DiskSimulator* disk_;
  PagedFile file_;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_ROW_STORE_H_
