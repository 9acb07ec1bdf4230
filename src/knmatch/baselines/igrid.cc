#include "knmatch/baselines/igrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch {

namespace {
constexpr size_t kListEntryBytes = sizeof(PointId) + sizeof(Value);
}  // namespace

IGridIndex::IGridIndex(const Dataset& db, IGridOptions options,
                       DiskSimulator* disk)
    : db_(db), fragmented_(options.fragmented), disk_(disk) {
  const size_t d = db.dims();
  const size_t c = db.size();
  partitions_ = options.partitions != 0 ? options.partitions
                                        : std::max<size_t>(2, d / 2);
  partitions_ = std::min(partitions_, c);  // at least one point per range

  // Equi-depth boundaries from each sorted dimension.
  SortedColumns sorted(db);
  boundaries_.resize(d);
  lists_.resize(d * partitions_);
  for (size_t dim = 0; dim < d; ++dim) {
    auto vals = sorted.values(dim);
    auto& edges = boundaries_[dim];
    edges.resize(partitions_ + 1);
    for (size_t r = 0; r < partitions_; ++r) {
      edges[r] = vals[r * c / partitions_];
    }
    edges[partitions_] = vals[c - 1];
    // First edge must admit the minimum even with duplicates.
    edges[0] = vals[0];
  }

  // Populate inverted lists (pid ascending — we iterate pids in order).
  for (PointId pid = 0; pid < c; ++pid) {
    auto p = db.point(pid);
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t r = LocateRange(dim, p[dim]);
      lists_[dim * partitions_ + r].emplace_back(pid, p[dim]);
    }
  }

  // Optional disk layout: lists stored back to back.
  if (disk_ != nullptr) {
    file_.emplace(disk_);
    list_locations_.resize(lists_.size());
    const size_t entries_per_page = file_->payload_capacity() / kListEntryBytes;
    std::vector<std::byte> image;
    for (size_t li = 0; li < lists_.size(); ++li) {
      list_locations_[li].first_page = file_->num_pages();
      size_t in_page = 0;
      for (const auto& [pid, value] : lists_[li]) {
        PutScalar(&image, pid);
        PutScalar(&image, value);
        if (++in_page == entries_per_page) {
          file_->AppendPage(image);
          image.clear();
          in_page = 0;
        }
      }
      if (!image.empty()) {
        file_->AppendPage(image);
        image.clear();
      }
      list_locations_[li].num_pages =
          file_->num_pages() - list_locations_[li].first_page;
    }
  }
}

size_t IGridIndex::LocateRange(size_t dim, Value v) const {
  const auto& edges = boundaries_[dim];
  // upper_bound - 1: the last range whose lower edge is <= v.
  auto it = std::upper_bound(edges.begin(), edges.begin() + partitions_, v);
  if (it == edges.begin()) return 0;
  return static_cast<size_t>(it - edges.begin()) - 1;
}

Result<KnMatchResult> IGridIndex::Search(std::span<const Value> query,
                                         size_t k) const {
  Status s =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), 1, 1, k);
  if (!s.ok()) return s;

  const size_t d = db_.dims();
  std::vector<Value> similarity(db_.size(), Value{0});
  uint64_t entries_read = 0;
  // One leased stream, rewound wherever the layout seeks: rewound, it
  // charges exactly what a freshly opened stream would.
  const DiskSimulator::StreamLease streams(disk_, 1);
  const size_t stream = streams[0];
  bool stream_fresh = true;
  const auto seek = [&] {
    if (!stream_fresh) disk_->RewindStream(stream);
    stream_fresh = false;
  };

  for (size_t dim = 0; dim < d; ++dim) {
    const size_t r = LocateRange(dim, query[dim]);
    const size_t li = dim * partitions_ + r;
    const auto& list = lists_[li];
    const Value lo = boundaries_[dim][r];
    const Value hi = boundaries_[dim][r + 1];
    const Value width = hi - lo;

    if (disk_ != nullptr) {
      const ListLocation& loc = list_locations_[li];
      if (fragmented_) {
        // The layout the paper measured: list fragments scattered over
        // the file, every page its own seek.
        for (size_t pg = 0; pg < loc.num_pages; ++pg) {
          seek();
          file_->ReadPage(stream, loc.first_page + pg);
        }
      } else {
        // Idealized contiguous layout: one seek, then sequential.
        seek();
        for (size_t pg = 0; pg < loc.num_pages; ++pg) {
          file_->ReadPage(stream, loc.first_page + pg);
        }
      }
    }

    for (const auto& [pid, value] : list) {
      ++entries_read;
      const Value contribution =
          width > 0
              ? std::max(Value{0}, 1 - std::abs(value - query[dim]) / width)
              : Value{1};
      similarity[pid] += contribution;
    }
  }

  // Top-k by similarity, descending; report negated similarity so that
  // smaller Neighbor::distance is better, as everywhere else.
  BoundedTopK<PointId, Value, PointId> top(k);
  for (PointId pid = 0; pid < db_.size(); ++pid) {
    top.Offer(-similarity[pid], pid, pid);
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved = entries_read;
  return result;
}

}  // namespace knmatch
