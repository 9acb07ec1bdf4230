#ifndef KNMATCH_VAFILE_VA_FILE_H_
#define KNMATCH_VAFILE_VA_FILE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

/// Vector-Approximation file [Weber, Schek, Blott; VLDB'98], the
/// compression technique the paper adapts as its disk-based competitor
/// (Section 4.2). Each point is approximated by `bits` bits per
/// dimension identifying the grid cell its coordinate falls in; the
/// approximation file is a fraction (bits/64 for double data; 25% in the
/// paper's 8-bit/float setting) of the original and is scanned
/// sequentially in phase 1 of any VA-based query.
class VaFile {
 public:
  /// Quantizes `db` with `bits` bits per dimension (1..16) into pages on
  /// the simulated disk. Cells are equi-width over each dimension's
  /// [min, max] range.
  VaFile(const Dataset& db, DiskSimulator* disk, unsigned bits = 8);

  /// Cardinality.
  size_t size() const { return size_; }
  /// Dimensionality.
  size_t dims() const { return dims_; }
  /// Bits per dimension.
  unsigned bits() const { return bits_; }
  /// Cells per dimension (2^bits).
  uint32_t cells() const { return cells_; }
  /// Number of pages the approximation file occupies.
  size_t num_pages() const { return file_.num_pages(); }

  /// Lower edge of cell `code` in dimension `dim`.
  Value CellLower(size_t dim, uint32_t code) const;
  /// Upper edge of cell `code` in dimension `dim`.
  Value CellUpper(size_t dim, uint32_t code) const;

  /// The cell code a coordinate quantizes to in `dim`.
  uint32_t Quantize(size_t dim, Value v) const;

  /// Opens an I/O accounting stream.
  size_t OpenStream() const;
  /// Opens `count` streams for one query, released together when the
  /// lease dies.
  DiskSimulator::StreamLease OpenStreams(size_t count) const {
    return DiskSimulator::StreamLease(disk_, count);
  }

  /// The simulator this file charges its I/O to (for page-budget
  /// accounting via QueryContext::ArmPages).
  const DiskSimulator* disk() const { return disk_; }

  /// Sequentially scans the approximation file on `stream`, invoking
  /// `fn(pid, codes)` for every point; `codes` has dims() entries.
  /// Stops at the first unreadable page and returns its error.
  Status ForEachApprox(
      size_t stream,
      const std::function<void(PointId, std::span<const uint32_t>)>& fn)
      const;

  /// As ForEachApprox, but `fn` returning false stops the scan early
  /// with an OK status — the cooperative early-exit the governance
  /// layer uses; no further pages are read.
  Status ForEachApproxWhile(
      size_t stream,
      const std::function<bool(PointId, std::span<const uint32_t>)>& fn)
      const;

 private:
  size_t size_;
  size_t dims_;
  unsigned bits_;
  uint32_t cells_;
  size_t row_bytes_;
  size_t rows_per_page_;
  DiskSimulator* disk_;
  PagedFile file_;
  std::vector<Value> dim_lo_;
  std::vector<Value> dim_width_;  // full range width per dimension
};

}  // namespace knmatch

#endif  // KNMATCH_VAFILE_VA_FILE_H_
