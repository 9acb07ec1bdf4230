// Tests for the AD kernel (core/ad_kernel.h): the loser tree's
// selection order, and the kernel's bit-for-bit equivalence to the
// reference heap engine on both drive paths — the band-synchronous
// ascend over in-memory columns and the block kernel over paged ones —
// pop order, answer sets, attributes_retrieved, and (on disk) every I/O
// counter, with and without injected faults. These are the tests that
// license swapping the kernel into every production entry point.

#include "knmatch/core/ad_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/datagen/texture_like.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/fault_injector.h"

namespace knmatch {
namespace {

using internal::AdAnswerBuilder;
using internal::AdEngine;
using internal::AdKernel;
using internal::AdLoserTree;
using internal::AdOutput;
using internal::AdScratch;
using internal::MemoryColumnAccessor;
using internal::RunAdSearch;
using internal::RunAdSearchReference;

// ---------------------------------------------------------------------------
// AdLoserTree selection order

/// Linear-scan argmin by (key, slot) — the specification the tree must
/// match exactly.
uint32_t ScanWinner(const std::vector<Value>& keys) {
  uint32_t best = 0;
  for (uint32_t s = 1; s < keys.size(); ++s) {
    if (keys[s] < keys[best]) best = s;
  }
  return best;
}

uint32_t ScanRunnerUp(const std::vector<Value>& keys, uint32_t winner) {
  uint32_t best = AdLoserTree::kNone;
  for (uint32_t s = 0; s < keys.size(); ++s) {
    if (s == winner) continue;
    if (best == AdLoserTree::kNone || keys[s] < keys[best]) best = s;
  }
  return best;
}

TEST(AdKernelLoserTreeTest, WinnerAndRunnerUpMatchLinearScan) {
  const Value inf = std::numeric_limits<Value>::infinity();
  for (const size_t m : {2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u}) {
    Rng rng(1000 + m);
    // Quantized keys: heavy duplicates, so the slot tie-break decides
    // most matches.
    std::vector<Value> keys(m);
    for (Value& k : keys) k = Value(rng.UniformInt(4)) / 4.0;
    AdLoserTree tree;
    tree.Build(m, keys.data());
    size_t live = m;
    for (int step = 0; step < 400 && live > 0; ++step) {
      const uint32_t w = tree.winner();
      ASSERT_EQ(w, ScanWinner(keys)) << "m=" << m << " step=" << step;
      ASSERT_EQ(tree.RunnerUp(w, keys.data()), ScanRunnerUp(keys, w))
          << "m=" << m << " step=" << step;
      // Advance the winner like a real cursor: key never decreases,
      // occasionally exhausting.
      if (rng.Bernoulli(0.05)) {
        keys[w] = inf;
        --live;
      } else {
        keys[w] += Value(rng.UniformInt(3)) / 4.0;
      }
      tree.Replay(w, keys.data());
    }
  }
}

TEST(AdKernelLoserTreeTest, AllExhaustedLeavesInfiniteWinner) {
  const Value inf = std::numeric_limits<Value>::infinity();
  std::vector<Value> keys = {0.5, 0.25, 0.75, 0.125};
  AdLoserTree tree;
  tree.Build(keys.size(), keys.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t w = tree.winner();
    EXPECT_EQ(w, ScanWinner(keys));
    keys[w] = inf;
    tree.Replay(w, keys.data());
  }
  EXPECT_EQ(keys[tree.winner()], inf);
}

// ---------------------------------------------------------------------------
// Differential: kernel vs reference heap engine, in memory

/// Snaps every attribute of `db` to a `levels`-step grid, producing a
/// duplicate-heavy dataset where equal differences are the norm.
Dataset Quantize(const Dataset& db, double levels) {
  Matrix m(db.size(), db.dims());
  for (PointId pid = 0; pid < db.size(); ++pid) {
    for (size_t dim = 0; dim < db.dims(); ++dim) {
      m.at(pid, dim) = std::round(db.at(pid, dim) * levels) / levels;
    }
  }
  return Dataset(std::move(m));
}

void ExpectSameOutput(const AdOutput& kernel, const AdOutput& reference,
                      const char* what, size_t qi) {
  ASSERT_EQ(kernel.per_n_sets.size(), reference.per_n_sets.size())
      << what << " query " << qi;
  for (size_t s = 0; s < kernel.per_n_sets.size(); ++s) {
    EXPECT_EQ(kernel.per_n_sets[s], reference.per_n_sets[s])
        << what << " query " << qi << " set " << s;
  }
  EXPECT_EQ(kernel.attributes_retrieved, reference.attributes_retrieved)
      << what << " query " << qi;
  EXPECT_EQ(kernel.heap_pops, reference.heap_pops)
      << what << " query " << qi;
}

/// Runs `queries` randomized (n0, n1, k, weights) queries over `db`,
/// asserting the kernel's output is identical to the reference's.
void DifferentialSweep(const Dataset& db, size_t queries, uint64_t seed,
                       const char* what) {
  const SortedColumns columns(db);
  MemoryColumnAccessor acc(columns);
  AdScratch kernel_scratch;
  AdScratch reference_scratch;
  Rng rng(seed);
  const size_t d = db.dims();
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q(d);
    // Mix in-range, boundary, and out-of-range coordinates: the latter
    // start one direction cursor exhausted from the first step.
    for (Value& v : q) v = rng.Uniform(-0.2, 1.2);
    const size_t n0 = 1 + rng.UniformInt(d);
    const size_t n1 = n0 + rng.UniformInt(d - n0 + 1);
    // Large k (up to the full cardinality) forces exhaustion mid-run
    // on a fair fraction of the queries.
    const size_t k = 1 + rng.UniformInt(db.size());
    std::vector<Value> weights;
    if (rng.Bernoulli(0.3)) {
      weights.resize(d);
      for (Value& w : weights) w = 0.25 + rng.Uniform01();
    }
    const AdOutput kernel =
        RunAdSearch(acc, q, n0, n1, k, weights, &kernel_scratch);
    const AdOutput reference = RunAdSearchReference(
        acc, q, n0, n1, k, weights, &reference_scratch);
    ExpectSameOutput(kernel, reference, what, qi);
  }
}

TEST(AdKernelDifferentialTest, UniformDataMatchesReference) {
  DifferentialSweep(datagen::MakeUniform(400, 6, 11), 250, 21, "uniform");
}

TEST(AdKernelDifferentialTest, DuplicateHeavyDataMatchesReference) {
  // Values quantized to an 8-level grid: equal differences across
  // slots and inside runs everywhere, so the slot tie-break (and the
  // run-stop condition's tie handling) carries the whole order.
  DifferentialSweep(Quantize(datagen::MakeUniform(300, 5, 12), 8.0), 250,
                    22, "duplicate");
}

TEST(AdKernelDifferentialTest, SkewedDataMatchesReference) {
  DifferentialSweep(datagen::MakeSkewed(350, 4, 13, 2.0), 250, 23,
                    "skewed");
}

TEST(AdKernelDifferentialTest, TinyDataExhaustsIdentically) {
  // 20 points, 2 dims: almost every query exhausts every cursor, so
  // the final-pop and all-exhausted paths run constantly.
  DifferentialSweep(datagen::MakeUniform(20, 2, 14), 250, 24, "tiny");
}

// ---------------------------------------------------------------------------
// Differential: ragged columns (and the ReadRun + column_length mix)

/// Ragged accessor with a full-service ReadRun: some points lack
/// values in some dimensions, and the kernel must size its run reads
/// by column_length, not column_size.
class RaggedRunAccessor {
 public:
  RaggedRunAccessor(std::vector<std::vector<ColumnEntry>> columns,
                    size_t cardinality)
      : columns_(std::move(columns)), cardinality_(cardinality) {}

  size_t dims() const { return columns_.size(); }
  size_t column_size() const { return cardinality_; }
  size_t column_length(size_t dim) const { return columns_[dim].size(); }
  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t /*slot*/) const {
    return columns_[dim][idx];
  }
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) const {
    for (size_t i = 0; i < len; ++i) {
      const ColumnEntry& e =
          columns_[dim][slot % 2 == 0 ? idx - i : idx + i];
      values[i] = e.value;
      pids[i] = e.pid;
    }
    return len;
  }
  size_t LocateLowerBound(size_t dim, Value v) const {
    const auto& col = columns_[dim];
    size_t lo = 0;
    while (lo < col.size() && col[lo].value < v) ++lo;
    return lo;
  }

 private:
  std::vector<std::vector<ColumnEntry>> columns_;
  size_t cardinality_;
};

TEST(AdKernelDifferentialTest, RaggedColumnsMatchReference) {
  Rng rng(31);
  for (int round = 0; round < 25; ++round) {
    const size_t cardinality = 30 + rng.UniformInt(30);
    const size_t d = 2 + rng.UniformInt(4);
    std::vector<std::vector<ColumnEntry>> columns(d);
    for (size_t dim = 0; dim < d; ++dim) {
      for (PointId pid = 0; pid < cardinality; ++pid) {
        if (rng.Bernoulli(0.25)) continue;  // missing attribute
        // Quantized: ragged AND duplicate-heavy at once.
        columns[dim].push_back(
            {Value(rng.UniformInt(8)) / 8.0, pid});
      }
      // Keep at least one entry so LocateLowerBound stays in range.
      if (columns[dim].empty()) {
        columns[dim].push_back({0.5, 0});
      }
      std::sort(columns[dim].begin(), columns[dim].end(),
                [](const ColumnEntry& a, const ColumnEntry& b) {
                  if (a.value != b.value) return a.value < b.value;
                  return a.pid < b.pid;
                });
    }
    RaggedRunAccessor acc(columns, cardinality);
    AdScratch kernel_scratch;
    AdScratch reference_scratch;
    for (int qi = 0; qi < 40; ++qi) {
      std::vector<Value> q(d);
      for (Value& v : q) v = rng.Uniform01();
      const size_t n1 = 1 + rng.UniformInt(d);
      const size_t n0 = 1 + rng.UniformInt(n1);
      // k up to the cardinality: with missing attributes the columns
      // regularly exhaust before k points complete n1 appearances, so
      // the partial-answer path is exercised heavily.
      const size_t k = 1 + rng.UniformInt(cardinality);
      const AdOutput kernel =
          RunAdSearch(acc, q, n0, n1, k, {}, &kernel_scratch);
      const AdOutput reference =
          RunAdSearchReference(acc, q, n0, n1, k, {}, &reference_scratch);
      ExpectSameOutput(kernel, reference, "ragged", qi);
    }
  }
}

// ---------------------------------------------------------------------------
// Step(): the single-pop entry point (AdMatchStream's path)

TEST(AdKernelStepTest, StepSequenceMatchesHeapEngineToExhaustion) {
  // Duplicate-heavy so ties cover the tree's whole order; run both
  // engines dry and require identical pop sequences.
  const Dataset db = Quantize(datagen::MakeUniform(120, 3, 17), 4.0);
  const SortedColumns columns(db);
  MemoryColumnAccessor acc(columns);
  Rng rng(41);
  for (int qi = 0; qi < 20; ++qi) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform(-0.1, 1.1);
    AdKernel<MemoryColumnAccessor> kernel(acc, q);
    AdEngine<MemoryColumnAccessor> engine(acc, q);
    size_t pops = 0;
    for (;;) {
      auto kp = kernel.Step();
      auto ep = engine.Step();
      ASSERT_EQ(kp.has_value(), ep.has_value()) << "pop " << pops;
      if (!kp.has_value()) break;
      ASSERT_EQ(kp->pid, ep->pid) << "pop " << pops;
      ASSERT_EQ(kp->dif, ep->dif) << "pop " << pops;
      ASSERT_EQ(kp->appearances, ep->appearances) << "pop " << pops;
      ++pops;
    }
    EXPECT_EQ(pops, db.size() * db.dims());
    EXPECT_EQ(kernel.attributes_retrieved(), engine.attributes_retrieved());
  }
}

// ---------------------------------------------------------------------------
// Band scale: thousands of bands per query, and the band path held to
// the block path under the governed and approximate sinks

/// A held-out query in the distraction model: a dataset point with two
/// coordinates replaced by uniform noise and every other one jittered
/// by up to 0.01, so the query sits near its source point but never on
/// it.
std::vector<Value> HeldOutQuery(const Dataset& db, Rng& rng) {
  const auto source = static_cast<PointId>(rng.UniformInt(db.size()));
  std::vector<Value> q(db.dims());
  for (size_t dim = 0; dim < db.dims(); ++dim) {
    q[dim] = std::clamp(db.at(source, dim) + rng.Uniform(-0.01, 0.01),
                        0.0, 1.0);
  }
  for (int i = 0; i < 2; ++i) q[rng.UniformInt(db.dims())] = rng.Uniform01();
  return q;
}

/// The differential sweep at band scale: mostly held-out queries with
/// small k (the benchmark's shape, thousands of bands before the stop),
/// mixed with out-of-range coordinates, weights, and k up to
/// exhaustion.
void BandScaleSweep(const Dataset& db, size_t queries, uint64_t seed,
                    const char* what) {
  const SortedColumns columns(db);
  MemoryColumnAccessor acc(columns);
  AdScratch kernel_scratch;
  AdScratch reference_scratch;
  Rng rng(seed);
  const size_t d = db.dims();
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q = HeldOutQuery(db, rng);
    if (rng.Bernoulli(0.25)) {
      for (Value& v : q) v = rng.Uniform(-0.2, 1.2);
    }
    const size_t n0 = 1 + rng.UniformInt(d);
    const size_t n1 = n0 + rng.UniformInt(d - n0 + 1);
    const size_t k = rng.Bernoulli(0.15) ? 1 + rng.UniformInt(db.size())
                                         : 1 + rng.UniformInt(20);
    std::vector<Value> weights;
    if (rng.Bernoulli(0.3)) {
      weights.resize(d);
      for (Value& w : weights) w = 0.25 + rng.Uniform01();
    }
    const AdOutput kernel =
        RunAdSearch(acc, q, n0, n1, k, weights, &kernel_scratch);
    const AdOutput reference = RunAdSearchReference(
        acc, q, n0, n1, k, weights, &reference_scratch);
    ExpectSameOutput(kernel, reference, what, qi);
  }
}

TEST(AdKernelBandTest, TextureHeldOutQueriesMatchReference) {
  BandScaleSweep(datagen::MakeTextureLike(9, 20000), 40, 61, "texture");
}

TEST(AdKernelBandTest, QuantizedTextureMatchesReference) {
  // Eight levels per dimension: bands are dominated by tie groups
  // thousands of entries wide, larger than the band buffer, so they are
  // split across bands.
  BandScaleSweep(Quantize(datagen::MakeTextureLike(9, 20000), 8.0), 40, 62,
                 "quantized texture");
}

/// Per dimension: a dense head near 0, a sparse stretch the band width
/// grows across, then a cluster of `cluster` points at 0.7 — spaced
/// 1e-7 apart, or all exactly 0.7 when `tied`. Each dimension assigns
/// the values to points in its own random order.
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
      Value v;
      if (i < kHead) {
        v = 0.001 * Value(i);
      } else if (i < kHead + kSparse) {
        v = 0.02 + 0.01 * Value(i - kHead);
      } else {
        v = tied ? 0.7 : 0.7 + 1e-7 * Value(i - kHead - kSparse);
      }
      m.at(order[i], dim) = v;
    }
  }
  return Dataset(std::move(m));
}

TEST(AdKernelBandTest, FullBandsKeepTheBufferFixedAndTheOrderExact) {
  // A band whose width grew across a sparse stretch reaches a dense
  // cluster (or one tie group) holding several times the band buffer:
  // the band must lower its threshold — or split the tie group — and
  // still deliver the heap engine's exact pop sequence, through Step
  // and through Drive, weighted or not.
  for (const bool tied : {false, true}) {
    const Dataset db =
        GapThenCluster(3 * internal::kAdBandCapacity, tied, tied ? 67 : 66);
    const SortedColumns columns(db);
    MemoryColumnAccessor acc(columns);
    AdScratch kernel_scratch;
    AdScratch reference_scratch;
    Rng rng(68);
    for (int qi = 0; qi < 8; ++qi) {
      std::vector<Value> q(db.dims());
      // Below the head, inside the sparse stretch, or above the cluster.
      for (Value& v : q) {
        v = qi % 4 == 0 ? 0.0 : qi % 4 == 3 ? 0.9 : rng.Uniform(0.0, 0.6);
      }
      std::vector<Value> weights;
      if (qi % 2 == 1) weights = {1.0, 0.5, 1.0};
      const char* what = tied ? "tied cluster" : "dense cluster";
      {
        AdKernel<MemoryColumnAccessor> kernel(acc, q, weights,
                                              &kernel_scratch);
        AdEngine<MemoryColumnAccessor> engine(acc, q, weights,
                                              &reference_scratch);
        size_t pops = 0;
        for (;;) {
          auto kp = kernel.Step();
          auto ep = engine.Step();
          ASSERT_EQ(kp.has_value(), ep.has_value()) << what << " pop " << pops;
          if (!kp.has_value()) break;
          ASSERT_EQ(kp->pid, ep->pid) << what << " pop " << pops;
          ASSERT_EQ(kp->dif, ep->dif) << what << " pop " << pops;
          ASSERT_EQ(kp->appearances, ep->appearances)
              << what << " pop " << pops;
          ++pops;
        }
        EXPECT_EQ(pops, db.size() * db.dims());
        EXPECT_EQ(kernel.attributes_retrieved(),
                  engine.attributes_retrieved());
      }

      const size_t k = qi < 4 ? 10 : db.size();
      const AdOutput out =
          RunAdSearch(acc, q, 1, db.dims(), k, weights, &kernel_scratch);
      const AdOutput reference = RunAdSearchReference(
          acc, q, 1, db.dims(), k, weights, &reference_scratch);
      ExpectSameOutput(out, reference, what, qi);
    }
  }
}

/// The in-memory columns behind a ReadRun-only interface: no spans, so
/// the kernel drives them on the block path (loser tree / pair-min
/// scan) — the same data the band path walks in place.
class BlockMemoryAccessor {
 public:
  explicit BlockMemoryAccessor(const SortedColumns& columns)
      : columns_(columns) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.size(); }
  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t /*slot*/) const {
    return columns_.entry(dim, idx);
  }
  /// Copies `len` entries walking away from the query (descending
  /// indices for even slots, ascending for odd); memory has no page
  /// boundaries, so the full request is always served.
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) const {
    for (size_t i = 0; i < len; ++i) {
      const size_t at = slot % 2 == 0 ? idx - i : idx + i;
      values[i] = columns_.values(dim)[at];
      pids[i] = columns_.pids(dim)[at];
    }
    return len;
  }
  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

 private:
  const SortedColumns& columns_;
};

static_assert(internal::DirectColumnAccessor<MemoryColumnAccessor>);
static_assert(!internal::DirectColumnAccessor<BlockMemoryAccessor>);
static_assert(internal::RunReadingAccessor<BlockMemoryAccessor>);

void ExpectSameBound(const RecallBound& band, const RecallBound& block,
                     size_t qi) {
  EXPECT_EQ(band.guaranteed, block.guaranteed) << "query " << qi;
  EXPECT_EQ(band.epsilon, block.epsilon) << "query " << qi;
  EXPECT_EQ(band.exact_prefix, block.exact_prefix) << "query " << qi;
  EXPECT_EQ(band.level_exact, block.level_exact) << "query " << qi;
  EXPECT_EQ(band.settled_below, block.settled_below) << "query " << qi;
  EXPECT_EQ(band.early_stopped, block.early_stopped) << "query " << qi;
}

TEST(AdKernelBandTest, GovernedAndApproxSinksMatchBlockPath) {
  // Both drivers over the same columns, under a tight attribute budget
  // (trips at a stride boundary), the (1+eps) stop, and both at once:
  // the trip, its progress counters, the partial sets and the recall
  // bound must agree exactly. Both paths recheck the budgets at every
  // stride, so even an untripped context's progress snapshot matches.
  const Dataset db = datagen::MakeTextureLike(9, 8000);
  const SortedColumns columns(db);
  MemoryColumnAccessor band_acc(columns);
  BlockMemoryAccessor block_acc(columns);
  AdScratch band_scratch;
  AdScratch block_scratch;
  Rng rng(63);
  const size_t d = db.dims();
  size_t tripped = 0, stopped = 0;
  for (size_t qi = 0; qi < 120; ++qi) {
    const std::vector<Value> q = HeldOutQuery(db, rng);
    const size_t n0 = 1 + rng.UniformInt(d);
    const size_t n1 = n0 + rng.UniformInt(d - n0 + 1);
    const size_t k = 1 + rng.UniformInt(30);
    const int mode = static_cast<int>(qi % 3);  // governed, approx, both
    ApproxPolicy approx;
    if (mode != 0) approx.epsilon = 0.05 * Value(1 + rng.UniformInt(5));
    QueryContext band_ctx;
    QueryContext block_ctx;
    if (mode != 1) {
      const uint64_t budget = 500 + rng.UniformInt(20000);
      band_ctx.budgets().max_attributes = budget;
      block_ctx.budgets().max_attributes = budget;
    }
    const AdOutput band = RunAdSearch(band_acc, q, n0, n1, k, {},
                                      &band_scratch, &band_ctx, approx);
    const AdOutput block = RunAdSearch(block_acc, q, n0, n1, k, {},
                                       &block_scratch, &block_ctx, approx);
    ExpectSameOutput(band, block, "band vs block", qi);
    ExpectSameBound(band.bound, block.bound, qi);
    stopped += band.bound.early_stopped;
    ASSERT_EQ(band_ctx.tripped(), block_ctx.tripped()) << "query " << qi;
    EXPECT_EQ(band_ctx.trip().pops, block_ctx.trip().pops) << "query " << qi;
    EXPECT_EQ(band_ctx.trip().attributes_retrieved,
              block_ctx.trip().attributes_retrieved)
        << "query " << qi;
    if (!band_ctx.tripped()) continue;
    EXPECT_EQ(band_ctx.trip_status().code(), block_ctx.trip_status().code())
        << "query " << qi;
    EXPECT_EQ(band_ctx.trip().partial_per_n_sets,
              block_ctx.trip().partial_per_n_sets)
        << "query " << qi;
    ++tripped;
  }
  // Both arms must actually have fired, or the comparison is vacuous.
  EXPECT_GT(tripped, 10u);
  EXPECT_GT(stopped, 10u);
}

TEST(AdKernelBandTest, BlockPathStepMatchesHeapEngineToExhaustion) {
  // The Step() sequence of the block path over memory columns, as
  // AdKernelStepTest holds the band path's.
  const Dataset db = Quantize(datagen::MakeUniform(120, 3, 17), 4.0);
  const SortedColumns columns(db);
  BlockMemoryAccessor acc(columns);
  Rng rng(64);
  for (int qi = 0; qi < 20; ++qi) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform(-0.1, 1.1);
    AdKernel<BlockMemoryAccessor> kernel(acc, q);
    AdEngine<BlockMemoryAccessor> engine(acc, q);
    size_t pops = 0;
    for (;;) {
      auto kp = kernel.Step();
      auto ep = engine.Step();
      ASSERT_EQ(kp.has_value(), ep.has_value()) << "pop " << pops;
      if (!kp.has_value()) break;
      ASSERT_EQ(kp->pid, ep->pid) << "pop " << pops;
      ASSERT_EQ(kp->dif, ep->dif) << "pop " << pops;
      ASSERT_EQ(kp->appearances, ep->appearances) << "pop " << pops;
      ++pops;
    }
    EXPECT_EQ(pops, db.size() * db.dims());
    EXPECT_EQ(kernel.attributes_retrieved(), engine.attributes_retrieved());
  }
}

TEST(AdKernelBandTest, RunEntriesSumToHeapPops) {
  // On the band path a run is a maximal stretch of consecutive
  // deliveries from one slot: the runs must partition the delivered
  // pops, and the exported histogram must carry exactly those runs.
  const Dataset db = datagen::MakeTextureLike(9, 8000);
  const SortedColumns columns(db);
  MemoryColumnAccessor acc(columns);
  AdScratch scratch;
  Rng rng(65);
  for (int qi = 0; qi < 10; ++qi) {
    const std::vector<Value> q = HeldOutQuery(db, rng);
    AdOutput out;
    out.per_n_sets.resize(1);
    AdKernel<MemoryColumnAccessor> kernel(acc, q, {}, &scratch);
    AdAnswerBuilder answers(&out, 8, 8, 10);
    kernel.Drive([&answers](PointId pid, Value dif, uint16_t a) {
      return answers.Consume(pid, dif, a);
    });
    answers.Flush();
    ASSERT_GT(out.heap_pops, 2 * internal::kAdBandTarget)
        << "the query must span several bands";
    EXPECT_EQ(kernel.run_entries(), out.heap_pops) << "query " << qi;
    // Bucket i >= 1 holds runs of [2^(i-1), 2^i) pops, so the buckets
    // bound the pops they partition from both sides.
    const auto& buckets = kernel.run_length_buckets();
    uint64_t runs = 0, least = 0, most = 0;
    for (size_t i = 1; i < 64; ++i) {
      runs += buckets[i];
      least += buckets[i] << (i - 1);
      most += buckets[i] * ((uint64_t{1} << i) - 1);
    }
    EXPECT_EQ(buckets[0], 0u);
    EXPECT_EQ(runs, kernel.tree_replays()) << "query " << qi;
    EXPECT_LE(least, out.heap_pops) << "query " << qi;
    EXPECT_GE(most, out.heap_pops) << "query " << qi;
    EXPECT_LT(runs, out.heap_pops) << "some run is longer than one pop";
  }

  if (!obs::Enabled()) return;
  const std::vector<Value> q = HeldOutQuery(db, rng);
  const obs::HistogramSnapshot before = obs::Cat().ad_run_length->Snapshot();
  const uint64_t replays_before = obs::Cat().ad_tree_replays->Value();
  const AdOutput out = RunAdSearch(acc, q, 8, 8, 10, {}, &scratch);
  const obs::HistogramSnapshot after = obs::Cat().ad_run_length->Snapshot();
  EXPECT_EQ(after.sum_raw - before.sum_raw, out.heap_pops);
  EXPECT_EQ(after.count - before.count, out.tree_replays);
  EXPECT_EQ(obs::Cat().ad_tree_replays->Value() - replays_before,
            out.tree_replays);
}

// ---------------------------------------------------------------------------
// Disk: ReadRun accounting and fault soak

/// The production disk accessor's shape, local to the test so both the
/// run-reading and the entry-only variant can be compared over
/// independent simulators.
template <bool kWithReadRun>
class TestDiskAccessor {
 public:
  explicit TestDiskAccessor(const ColumnStore& columns)
      : columns_(columns) {
    for (size_t i = 0; i < 2 * columns.dims(); ++i) {
      streams_.push_back(columns.OpenStream());
    }
  }

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }

  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot) {
    Result<ColumnEntry> e = columns_.ReadEntry(streams_[slot], dim, idx);
    if (!e.ok()) {
      status_ = e.status();
      return ColumnEntry{};
    }
    return e.value();
  }

  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids)
    requires(kWithReadRun)
  {
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

  const Status& status() const { return status_; }

 private:
  const ColumnStore& columns_;
  std::vector<size_t> streams_;
  Status status_;
};

static_assert(internal::RunReadingAccessor<TestDiskAccessor<true>>);
static_assert(!internal::RunReadingAccessor<TestDiskAccessor<false>>);

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

/// Runs the same randomized query stream through (a) the kernel over a
/// run-reading accessor and (b) the reference heap engine over an
/// entry-only accessor, each on its own identically configured
/// simulator, asserting identical answers, attribute charges, statuses
/// and I/O counters after every query.
void DiskDifferentialSoak(FaultInjector* kernel_faults,
                          FaultInjector* reference_faults, size_t queries,
                          const char* what) {
  // A small page (21 entries) against kAdRunBlock = 64 makes nearly
  // every refill want more than one page can serve — the page-boundary
  // short-read path runs constantly.
  DiskConfig config;
  config.page_size = 256;
  config.buffer_pool_pages = 8;
  const Dataset db = datagen::MakeUniform(700, 3, 19);

  DiskSimulator kernel_disk(config);
  ColumnStore kernel_store(db, &kernel_disk);
  kernel_disk.set_fault_injector(kernel_faults);

  DiskSimulator reference_disk(config);
  ColumnStore reference_store(db, &reference_disk);
  reference_disk.set_fault_injector(reference_faults);

  ASSERT_GT(db.size() / kernel_store.entries_per_page(), 30u)
      << "dataset must span many pages for the boundary test to bite";

  Rng rng(53);
  for (size_t qi = 0; qi < queries; ++qi) {
    std::vector<Value> q(db.dims());
    for (Value& v : q) v = rng.Uniform01();
    const size_t n = 1 + rng.UniformInt(db.dims());
    const size_t k = 1 + rng.UniformInt(50);

    TestDiskAccessor<true> kernel_acc(kernel_store);
    TestDiskAccessor<false> reference_acc(reference_store);
    const AdOutput kernel = RunAdSearch(kernel_acc, q, n, n, k);
    const AdOutput reference =
        RunAdSearchReference(reference_acc, q, n, n, k);

    ASSERT_EQ(kernel_acc.status().code(), reference_acc.status().code())
        << what << " query " << qi;
    ExpectSameOutput(kernel, reference, what, qi);
    ASSERT_EQ(DiskCounters(kernel_disk), DiskCounters(reference_disk))
        << what << " query " << qi;
  }
}

TEST(AdKernelDiskTest, RunReadsChargeIdenticallyToEntryReads) {
  DiskDifferentialSoak(nullptr, nullptr, 60, "fault-free");
}

TEST(AdKernelDiskTest, FaultSoakStaysBitIdentical) {
  // Separate injector instances with one seed: both sides must issue
  // the same physical attempt sequence to see the same faults — which
  // is itself part of what is being asserted.
  FaultInjector::Config faults;
  faults.seed = 77;
  faults.transient_error_rate = 0.05;
  faults.corruption_rate = 0.01;
  FaultInjector kernel_faults(faults);
  FaultInjector reference_faults(faults);
  DiskDifferentialSoak(&kernel_faults, &reference_faults, 60, "faulted");
}

}  // namespace
}  // namespace knmatch
