// Tests for the AD kernel's band path over B+-tree columns: the
// production leaf-walking accessor (diskalgo/btree_accessor.h) driven by
// the band ascend must match the reference heap engine over an
// entry-only tree accessor, each on its own identically configured
// simulator — answers, attributes_retrieved, pops, status, every I/O
// counter and the B+-tree node-visit metric after every query, with
// and without injected faults, over snapshots with erased and
// reclaimed leaves and over live trees with lazily emptied ones.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/matrix.h"
#include "knmatch/common/random.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_kernel.h"
#include "knmatch/core/query_context.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_accessor.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/fault_injector.h"
#include "knmatch/storage/ingest.h"

namespace knmatch {
namespace {

using internal::AdKernel;
using internal::AdOutput;
using internal::AdScratch;
using internal::BTreeColumnAccessor;
using internal::RunAdSearch;
using internal::RunAdSearchReference;

/// The tree accessor the block kernel used to run: one iterator per
/// cursor direction, one ReadEntry per attribute, each leaf crossing
/// charged by Prev()/Next(). The reference engine runs over it.
template <typename Columns>
class EntryTreeAccessor {
 public:
  EntryTreeAccessor(const Columns& columns, std::span<const Value> query)
      : columns_(columns),
        query_(query),
        streams_(columns.tree(0).OpenStreams(2 * columns.dims() + 1)),
        cursors_(2 * columns.dims()) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }
  size_t pid_bound() const {
    if constexpr (requires { columns_.pid_bound(); }) {
      return columns_.pid_bound();
    } else {
      return columns_.column_size();
    }
  }

  ColumnEntry ReadEntry(size_t dim, size_t /*idx*/, uint32_t slot) {
    Cursor& cursor = cursors_[slot];
    if (!cursor.started) {
      cursor.started = true;
      cursor.it = slot % 2 == 0
                      ? columns_.tree(dim).SeekBefore(streams_[slot],
                                                      query_[dim])
                      : columns_.tree(dim).SeekLowerBound(streams_[slot],
                                                          query_[dim]);
    } else if (slot % 2 == 0) {
      cursor.it.Prev();
    } else {
      cursor.it.Next();
    }
    if (!cursor.it.status().ok()) {
      status_ = cursor.it.status();
      return ColumnEntry{};
    }
    return cursor.it.Get();
  }

  size_t LocateLowerBound(size_t dim, Value v) {
    Result<size_t> rank =
        columns_.tree(dim).RankOf(streams_[2 * dims()], v);
    if (!rank.ok()) {
      status_ = rank.status();
      return 0;
    }
    return rank.value();
  }

  const Status& status() const { return status_; }

 private:
  struct Cursor {
    bool started = false;
    BPlusTree::Iterator it;
  };
  const Columns& columns_;
  std::span<const Value> query_;
  DiskSimulator::StreamLease streams_;
  std::vector<Cursor> cursors_;
  Status status_;
};

static_assert(AdKernel<BTreeColumnAccessor<SnapshotColumns>>::kLeafPath);
static_assert(AdKernel<BTreeColumnAccessor<BTreeColumns>>::kLeafPath);
static_assert(!AdKernel<EntryTreeAccessor<SnapshotColumns>>::kBandPath);

struct DiskCounters {
  uint64_t sequential, random, buffer_hits, failed;

  explicit DiskCounters(const DiskSimulator& disk)
      : sequential(disk.sequential_reads()),
        random(disk.random_reads()),
        buffer_hits(disk.buffer_hits()),
        failed(disk.failed_reads()) {}

  friend bool operator==(const DiskCounters&, const DiskCounters&) =
      default;
};

uint64_t NodeVisits() { return obs::Cat().btree_node_visits->Value(); }

/// A small buffer pool, so pool hits and evictions are part of what
/// must match.
DiskConfig TreeDiskConfig() {
  DiskConfig config;
  config.buffer_pool_pages = 8;
  return config;
}

/// A live index after mass erases in dimension-0 order (whole leaves of
/// tree 0 reclaimed, parents with them) and inserts that reuse the
/// freed slots, then one checkpoint. Built identically twice, each on
/// its own simulator, it gives both sides the same trees on the same
/// page ids.
struct SnapshotRig {
  DiskSimulator disk{TreeDiskConfig()};
  std::unique_ptr<LiveColumnIndex> live;
  std::shared_ptr<const LiveColumnIndex::ColumnSnapshot> pinned;

  SnapshotRig() {
    const Dataset base = datagen::MakeUniform(1800, 3, 61);
    LiveColumnIndex::Config config;
    config.group_commit_window = 64;
    live = std::make_unique<LiveColumnIndex>(base, &disk, config);
    std::vector<PointId> by_value(base.size());
    for (PointId pid = 0; pid < base.size(); ++pid) by_value[pid] = pid;
    std::sort(by_value.begin(), by_value.end(), [&](PointId a, PointId b) {
      return base.at(a, 0) < base.at(b, 0);
    });
    // Checkpoints keep the log (and each append's cost) short.
    for (size_t i = 0; i < 600; ++i) {
      EXPECT_TRUE(live->Erase(by_value[i]).ok());
      if (i % 50 == 49) {
        EXPECT_TRUE(live->Checkpoint().ok());
      }
    }
    EXPECT_GT(live->free_slots(), 0u) << "erases must reclaim leaves";
    Rng rng(62);
    for (PointId pid = 5000; pid < 5200; ++pid) {
      const std::vector<Value> coords{rng.Uniform01(), rng.Uniform01(),
                                      rng.Uniform01()};
      EXPECT_TRUE(live->Insert(pid, coords).ok());
      if (pid % 50 == 49) {
        EXPECT_TRUE(live->Checkpoint().ok());
      }
    }
    EXPECT_TRUE(live->Checkpoint().ok());
    pinned = live->PinSnapshot();
  }

  SnapshotColumns columns() const { return SnapshotColumns(pinned); }
};

/// Live trees with lazily emptied leaves still on the chain: erasing
/// points in dimension-0 order without reclamation empties whole leaves
/// of tree 0 that every crossing then walks (and is charged for). Of
/// the points in dimension-0 order, every other run of `erase_run`
/// starting at `first` is erased from every tree.
struct LiveTreeRig {
  DiskSimulator disk{TreeDiskConfig()};
  BTreeColumns trees;

  LiveTreeRig(const Dataset& base, size_t first, size_t erase_run)
      : trees(base, &disk) {
    std::vector<PointId> by_value(base.size());
    for (PointId pid = 0; pid < base.size(); ++pid) by_value[pid] = pid;
    std::sort(by_value.begin(), by_value.end(), [&](PointId a, PointId b) {
      return base.at(a, 0) < base.at(b, 0);
    });
    for (size_t i = first; i < base.size(); ++i) {
      if (((i - first) / erase_run) % 2 == 1) continue;
      const PointId pid = by_value[i];
      for (size_t dim = 0; dim < base.dims(); ++dim) {
        EXPECT_TRUE(trees.tree(dim)
                        .Erase(ColumnEntry{base.at(pid, dim), pid})
                        .value());
      }
    }
  }
  LiveTreeRig() : LiveTreeRig(datagen::MakeUniform(2500, 3, 71), 300, 300) {}

  const BTreeColumns& columns() const { return trees; }
};

/// One randomized query: n0..n1, k (sometimes the whole column, run to
/// exhaustion), optional weights.
struct TreeQuery {
  std::vector<Value> q;
  size_t n0, n1, k;
  std::vector<Value> weights;
};

TreeQuery DrawQuery(Rng& rng, size_t d, size_t size) {
  TreeQuery t;
  t.q.resize(d);
  for (Value& v : t.q) v = rng.Uniform(-0.1, 1.1);
  t.n0 = 1 + rng.UniformInt(d);
  t.n1 = t.n0 + rng.UniformInt(d - t.n0 + 1);
  t.k = rng.Bernoulli(0.1) ? size : 1 + rng.UniformInt(60);
  if (rng.Bernoulli(0.3)) {
    t.weights.resize(d);
    for (Value& w : t.weights) w = 0.25 + rng.Uniform01();
  }
  return t;
}

void ExpectSameOutput(const AdOutput& band, const AdOutput& reference,
                      const char* what, size_t qi) {
  ASSERT_EQ(band.per_n_sets.size(), reference.per_n_sets.size())
      << what << " query " << qi;
  for (size_t s = 0; s < band.per_n_sets.size(); ++s) {
    EXPECT_EQ(band.per_n_sets[s], reference.per_n_sets[s])
        << what << " query " << qi << " set " << s;
  }
  EXPECT_EQ(band.attributes_retrieved, reference.attributes_retrieved)
      << what << " query " << qi;
  EXPECT_EQ(band.heap_pops, reference.heap_pops) << what << " query " << qi;
}

/// The band path over `band_rig`'s columns against the reference heap
/// engine over `reference_rig`'s, query by query.
template <typename Rig>
void TreeDifferentialSoak(Rig& band_rig, Rig& reference_rig,
                          size_t queries, uint64_t seed, const char* what) {
  const auto& band_columns = band_rig.columns();
  const auto& reference_columns = reference_rig.columns();
  const size_t d = band_columns.dims();
  ASSERT_EQ(band_columns.column_size(), reference_columns.column_size());
  AdScratch band_scratch, reference_scratch;
  Rng rng(seed);
  bool any_failed = false, any_ok = false;
  for (size_t qi = 0; qi < queries; ++qi) {
    const TreeQuery t = DrawQuery(rng, d, band_columns.column_size());

    const uint64_t visits0 = NodeVisits();
    BTreeColumnAccessor band_acc(band_columns, t.q);
    const AdOutput band = RunAdSearch(band_acc, t.q, t.n0, t.n1, t.k,
                                      t.weights, &band_scratch);
    const uint64_t band_visits = NodeVisits() - visits0;
    EntryTreeAccessor reference_acc(reference_columns, t.q);
    const AdOutput reference =
        RunAdSearchReference(reference_acc, t.q, t.n0, t.n1, t.k, t.weights,
                             &reference_scratch);
    const uint64_t reference_visits = NodeVisits() - visits0 - band_visits;

    ASSERT_EQ(band_acc.status().code(), reference_acc.status().code())
        << what << " query " << qi;
    (band_acc.status().ok() ? any_ok : any_failed) = true;
    ExpectSameOutput(band, reference, what, qi);
    ASSERT_EQ(DiskCounters(band_rig.disk), DiskCounters(reference_rig.disk))
        << what << " query " << qi;
    if (obs::Enabled()) {
      EXPECT_EQ(band_visits, reference_visits) << what << " query " << qi;
    }
  }
  EXPECT_TRUE(any_ok) << what;
  if (band_rig.disk.fault_injector() != nullptr) {
    EXPECT_TRUE(any_failed) << what << ": the schedule must fail some query";
  }
}

TEST(AdKernelTreeBandTest, SnapshotChargesIdenticallyToEntryReads) {
  SnapshotRig band, reference;
  TreeDifferentialSoak(band, reference, 120, 81, "snapshot");
}

TEST(AdKernelTreeBandTest, LiveTreesWithEmptyLeavesChargeIdentically) {
  LiveTreeRig band, reference;
  TreeDifferentialSoak(band, reference, 120, 82, "empty leaves");
}

TEST(AdKernelTreeBandTest, FaultSoakStaysBitIdentical) {
  // Separate injectors with one seed: both sides must issue the same
  // physical attempt sequence to see the same faults.
  FaultInjector::Config faults;
  faults.seed = 83;
  faults.transient_error_rate = 0.15;
  faults.corruption_rate = 0.005;
  {
    SnapshotRig band, reference;
    FaultInjector band_faults(faults), reference_faults(faults);
    band.disk.set_fault_injector(&band_faults);
    reference.disk.set_fault_injector(&reference_faults);
    TreeDifferentialSoak(band, reference, 120, 84, "faulted snapshot");
    band.disk.set_fault_injector(nullptr);
    reference.disk.set_fault_injector(nullptr);
  }
  LiveTreeRig band, reference;
  FaultInjector band_faults(faults), reference_faults(faults);
  band.disk.set_fault_injector(&band_faults);
  reference.disk.set_fault_injector(&reference_faults);
  TreeDifferentialSoak(band, reference, 120, 85, "faulted empty leaves");
  band.disk.set_fault_injector(nullptr);
  reference.disk.set_fault_injector(nullptr);
}

TEST(AdKernelTreeBandTest, StepSequenceMatchesHeapEngineToExhaustion) {
  SnapshotRig band_rig, reference_rig;
  const SnapshotColumns band_columns = band_rig.columns();
  const SnapshotColumns reference_columns = reference_rig.columns();
  const std::vector<Value> q = {0.45, 0.3, 0.7};
  BTreeColumnAccessor band_acc(band_columns, q);
  EntryTreeAccessor reference_acc(reference_columns, q);
  AdKernel kernel(band_acc, q);
  internal::AdEngine engine(reference_acc, q);
  uint64_t pops = 0;
  for (;;) {
    const auto a = kernel.Step();
    const auto b = engine.Step();
    ASSERT_EQ(a.has_value(), b.has_value()) << "pop " << pops;
    if (!a) break;
    ASSERT_EQ(a->pid, b->pid) << "pop " << pops;
    ASSERT_EQ(a->dif, b->dif) << "pop " << pops;
    ASSERT_EQ(a->appearances, b->appearances) << "pop " << pops;
    ++pops;
  }
  EXPECT_EQ(pops, 3 * band_columns.column_size());
  EXPECT_EQ(kernel.attributes_retrieved(), engine.attributes_retrieved());
  EXPECT_EQ(DiskCounters(band_rig.disk), DiskCounters(reference_rig.disk));
}

/// Per dimension: a dense head near 0, a sparse stretch the band width
/// grows across, then a cluster of `cluster` points at 0.7 — spaced
/// 1e-7 apart, or all exactly 0.7 when `tied` — spanning many leaves.
Dataset GapThenCluster(size_t cluster, bool tied, uint64_t seed) {
  constexpr size_t kHead = 20, kSparse = 60, kDims = 3;
  const size_t c = kHead + kSparse + cluster;
  Matrix m(c, kDims);
  Rng rng(seed);
  std::vector<PointId> order(c);
  for (size_t dim = 0; dim < kDims; ++dim) {
    for (PointId p = 0; p < c; ++p) order[p] = p;
    for (size_t i = c; i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    for (size_t i = 0; i < c; ++i) {
      m.at(order[i], dim) =
          i < kHead            ? 0.001 * Value(i)
          : i < kHead + kSparse ? 0.02 + 0.01 * Value(i - kHead)
          : tied                ? 0.7
                                : 0.7 + 1e-7 * Value(i - kHead - kSparse);
    }
  }
  return Dataset(std::move(m));
}

TEST(AdKernelTreeBandTest, FullBandsRewindAcrossLeaves) {
  // A band whose width grew across the sparse stretch reaches a cluster
  // (or one tie group) of several band buffers: the band lowers its
  // threshold or splits the tie group, taking emitted entries back
  // across leaf boundaries and lazily emptied leaves, and must still
  // pop and charge exactly as the heap engine.
  for (const bool tied : {false, true}) {
    const char* what = tied ? "tied cluster" : "dense cluster";
    const Dataset db =
        GapThenCluster(3 * internal::kAdBandCapacity, tied, tied ? 67 : 66);
    LiveTreeRig band_rig(db, 1000, 400), reference_rig(db, 1000, 400);
    const BTreeColumns& band_columns = band_rig.columns();
    const BTreeColumns& reference_columns = reference_rig.columns();
    AdScratch band_scratch, reference_scratch;
    Rng rng(68);
    for (int qi = 0; qi < 8; ++qi) {
      std::vector<Value> q(db.dims());
      for (Value& v : q) {
        v = qi % 4 == 0 ? 0.0 : qi % 4 == 3 ? 0.9 : rng.Uniform(0.0, 0.6);
      }
      std::vector<Value> weights;
      if (qi % 2 == 1) weights = {1.0, 0.5, 1.0};
      {
        BTreeColumnAccessor band_acc(band_columns, q);
        EntryTreeAccessor reference_acc(reference_columns, q);
        AdKernel kernel(band_acc, q, weights, &band_scratch);
        internal::AdEngine engine(reference_acc, q, weights,
                                  &reference_scratch);
        size_t pops = 0;
        for (;;) {
          const auto a = kernel.Step();
          const auto b = engine.Step();
          ASSERT_EQ(a.has_value(), b.has_value()) << what << " pop " << pops;
          if (!a) break;
          ASSERT_EQ(a->pid, b->pid) << what << " pop " << pops;
          ASSERT_EQ(a->dif, b->dif) << what << " pop " << pops;
          ASSERT_EQ(a->appearances, b->appearances) << what << " pop " << pops;
          ++pops;
        }
        EXPECT_EQ(pops, band_columns.column_size() * db.dims());
        EXPECT_EQ(kernel.attributes_retrieved(),
                  engine.attributes_retrieved());
        ASSERT_EQ(DiskCounters(band_rig.disk),
                  DiskCounters(reference_rig.disk))
            << what << " query " << qi;
      }
      const size_t k = qi < 4 ? 10 : band_columns.column_size();
      BTreeColumnAccessor band_acc(band_columns, q);
      EntryTreeAccessor reference_acc(reference_columns, q);
      const AdOutput band = RunAdSearch(band_acc, q, 1, db.dims(), k,
                                        weights, &band_scratch);
      const AdOutput reference = RunAdSearchReference(
          reference_acc, q, 1, db.dims(), k, weights, &reference_scratch);
      ExpectSameOutput(band, reference, what, qi);
      ASSERT_EQ(DiskCounters(band_rig.disk), DiskCounters(reference_rig.disk))
          << what << " query " << qi;
    }
  }
}

TEST(AdKernelTreeBandTest, GovernedPageBudgetTripsOnTheSamePop) {
  // The reference side is the block kernel over the entry accessor
  // (the heap engine has no governed drive path): the same recheck stride,
  // so the same pages must trip on the same pop with the same partial
  // answer.
  SnapshotRig band_rig, reference_rig;
  const SnapshotColumns band_columns = band_rig.columns();
  const SnapshotColumns reference_columns = reference_rig.columns();
  AdScratch band_scratch, reference_scratch;
  Rng rng(86);
  int trips = 0;
  for (size_t qi = 0; qi < 40; ++qi) {
    TreeQuery t = DrawQuery(rng, 3, band_columns.column_size());
    t.k = band_columns.column_size() / 2;  // long enough to cross leaves
    QueryContext band_ctx, reference_ctx;
    band_ctx.budgets().max_pages = reference_ctx.budgets().max_pages =
        12 + rng.UniformInt(30);
    band_ctx.ArmPages(band_columns.tree(0).disk());
    BTreeColumnAccessor band_acc(band_columns, t.q);
    RunAdSearch(band_acc, t.q, t.n0, t.n1, t.k, t.weights, &band_scratch,
                &band_ctx);
    reference_ctx.ArmPages(reference_columns.tree(0).disk());
    EntryTreeAccessor reference_acc(reference_columns, t.q);
    RunAdSearch(reference_acc, t.q, t.n0, t.n1, t.k, t.weights,
                &reference_scratch, &reference_ctx);

    ASSERT_EQ(band_ctx.tripped(), reference_ctx.tripped()) << "query " << qi;
    ASSERT_EQ(DiskCounters(band_rig.disk), DiskCounters(reference_rig.disk))
        << "query " << qi;
    if (!band_ctx.tripped()) continue;
    ++trips;
    EXPECT_EQ(band_ctx.trip_status().code(),
              reference_ctx.trip_status().code());
    const GovernanceTrip& a = band_ctx.trip();
    const GovernanceTrip& b = reference_ctx.trip();
    EXPECT_EQ(a.pops, b.pops) << "query " << qi;
    EXPECT_EQ(a.attributes_retrieved, b.attributes_retrieved)
        << "query " << qi;
    EXPECT_EQ(a.pages_read, b.pages_read) << "query " << qi;
    EXPECT_EQ(a.partial_per_n_sets, b.partial_per_n_sets) << "query " << qi;
  }
  EXPECT_GT(trips, 10) << "the budgets must be tight enough to trip";
}

}  // namespace
}  // namespace knmatch
