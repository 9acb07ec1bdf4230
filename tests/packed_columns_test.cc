// Differential soak for the bit-packed compressed columns: the packed
// representations must be invisible to the algorithm. Every accessor
// pairing — in-memory flat vs packed (through internal::RunAdSearch, so
// pop counts compare too), and every DiskAdSearcher instantiation
// (ColumnStore, PackedColumnStore, B+-tree columns, live snapshot) —
// must produce bit-identical answer sets, the same pop counts and the
// same attributes_retrieved across randomized query soaks. Also pins
// the codec itself (entry round trip, LowerBound agreement, compression
// actually shrinking).

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/ad_engine.h"
#include "knmatch/core/packed_columns.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/engine.h"
#include "knmatch/eval/experiment.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/ingest.h"
#include "knmatch/storage/packed_column_store.h"

namespace knmatch {
namespace {

void ExpectIdenticalSets(const std::vector<std::vector<Neighbor>>& a,
                         const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t lvl = 0; lvl < a.size(); ++lvl) {
    ASSERT_EQ(a[lvl].size(), b[lvl].size()) << "level " << lvl;
    for (size_t i = 0; i < a[lvl].size(); ++i) {
      EXPECT_EQ(a[lvl][i].pid, b[lvl][i].pid)
          << "level " << lvl << " slot " << i;
      EXPECT_EQ(a[lvl][i].distance, b[lvl][i].distance)
          << "level " << lvl << " slot " << i;
    }
  }
}

TEST(PackedColumnsTest, EntriesRoundTripBitForBit) {
  const Dataset db = datagen::MakeUniform(1000, 6, 41);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  ASSERT_EQ(packed.dims(), flat.dims());
  ASSERT_EQ(packed.size(), flat.size());
  for (size_t d = 0; d < flat.dims(); ++d) {
    for (size_t i = 0; i < flat.size(); ++i) {
      const ColumnEntry want = flat.entry(d, i);
      const ColumnEntry got = packed.entry(d, i);
      EXPECT_EQ(got.value, want.value) << "dim " << d << " idx " << i;
      EXPECT_EQ(got.pid, want.pid) << "dim " << d << " idx " << i;
    }
  }
}

TEST(PackedColumnsTest, LowerBoundMatchesFlatColumns) {
  const Dataset db = datagen::MakeUniform(2000, 4, 42);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  Rng rng(4243);
  for (size_t trial = 0; trial < 500; ++trial) {
    const size_t d = trial % flat.dims();
    const Value probe = rng.Uniform01() * 1.2 - 0.1;  // overshoot both ends
    const auto& vals = flat.values(d);
    const size_t want = static_cast<size_t>(
        std::lower_bound(vals.begin(), vals.end(), probe) - vals.begin());
    EXPECT_EQ(packed.LowerBound(d, probe), want)
        << "dim " << d << " probe " << probe;
  }
}

TEST(PackedColumnsTest, CompressionShrinksUniformColumns) {
  const Dataset db = datagen::MakeUniform(20000, 8, 43);
  const PackedColumns packed((SortedColumns(db)));
  EXPECT_LT(packed.packed_bytes(), packed.unpacked_bytes());
}

TEST(PackedColumnsTest, DecodeRunMatchesBothWalkDirections) {
  const Dataset db = datagen::MakeUniform(3000, 3, 44);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  Rng rng(4244);
  std::vector<Value> values(64);
  std::vector<PointId> pids(64);
  for (size_t trial = 0; trial < 400; ++trial) {
    const size_t d = trial % flat.dims();
    for (const bool descending : {false, true}) {
      const size_t idx = static_cast<size_t>(rng.UniformInt(flat.size()));
      const size_t room = descending ? idx + 1 : flat.size() - idx;
      const size_t len = std::min<size_t>(1 + rng.UniformInt(64), room);
      packed.DecodeRun(d, idx, len, descending, values.data(), pids.data());
      for (size_t j = 0; j < len; ++j) {
        const size_t at = descending ? idx - j : idx + j;
        const ColumnEntry want = flat.entry(d, at);
        ASSERT_EQ(values[j], want.value)
            << "dim " << d << " idx " << idx << " step " << j
            << (descending ? " down" : " up");
        ASSERT_EQ(pids[j], want.pid);
      }
    }
  }
}

// In-memory soak through internal::RunAdSearch so the pop counts are
// comparable too: flat and packed accessors must agree on the answer
// sets, the pop count, and attributes_retrieved for every query.
TEST(PackedDifferentialTest, MemoryKernelSoakIsBitIdentical) {
  const Dataset db = datagen::MakeUniform(5000, 8, 45);
  const SortedColumns flat(db);
  const PackedColumns packed(flat);
  internal::MemoryColumnAccessor flat_acc(flat);
  PackedColumnAccessor packed_acc(packed);
  internal::AdScratch scratch;
  size_t ran = 0;
  for (const PointId pid : eval::SampleQueryPids(db, 500, 900)) {
    auto q = db.point(pid);
    const size_t n0 = 1 + (ran % 4), n1 = n0 + (ran % 3);
    const size_t k = 1 + (ran % 12);
    internal::AdOutput a =
        internal::RunAdSearch(flat_acc, q, n0, n1, k, {}, &scratch);
    internal::AdOutput b =
        internal::RunAdSearch(packed_acc, q, n0, n1, k, {}, &scratch);
    ExpectIdenticalSets(a.per_n_sets, b.per_n_sets);
    EXPECT_EQ(a.heap_pops, b.heap_pops) << "pid " << pid;
    EXPECT_EQ(a.attributes_retrieved, b.attributes_retrieved)
        << "pid " << pid;
    ++ran;
  }
}

// The public engine path: EnablePackedColumns must not change any
// answer or the attributes accounting.
TEST(PackedDifferentialTest, EngineFacadeSoakIsBitIdentical) {
  const Dataset db = datagen::MakeUniform(4000, 8, 46);
  SimilarityEngine flat_engine{Dataset(db)};
  SimilarityEngine packed_engine{Dataset(db)};
  packed_engine.EnablePackedColumns();
  for (const PointId pid : eval::SampleQueryPids(db, 200, 901)) {
    const std::vector<Value> q(db.point(pid).begin(), db.point(pid).end());
    auto a = flat_engine.FrequentKnMatch(q, 2, 6, 10);
    auto b = packed_engine.FrequentKnMatch(q, 2, 6, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdenticalSets(a.value().per_n_sets, b.value().per_n_sets);
    EXPECT_EQ(a.value().matches, b.value().matches);
    EXPECT_EQ(a.value().frequencies, b.value().frequencies);
    EXPECT_EQ(a.value().attributes_retrieved,
              b.value().attributes_retrieved);
  }
}

// Disk organizations: the uncompressed ColumnStore, the packed page
// store, the B+-tree columns and a live-ingest snapshot of the same data
// must all deliver the same answers and attribute counts; the packed
// store must also charge fewer pages.
TEST(PackedDifferentialTest, DiskAndBTreeSoakIsBitIdentical) {
  const Dataset db = datagen::MakeUniform(4000, 8, 47);
  DiskSimulator disk;
  const ColumnStore flat_store(db, &disk);
  const PackedColumnStore packed_store(db, &disk);
  const BTreeColumns btree(db, &disk);
  const LiveColumnIndex live(db, &disk);
  const auto pinned = live.PinSnapshot();
  const SnapshotColumns snapshot(pinned->trees, pinned->pid_bound);
  EXPECT_LT(packed_store.num_pages(), flat_store.num_pages());

  const DiskAdSearcher flat_ad(flat_store);
  const DiskAdSearcher packed_ad(packed_store);
  const DiskAdSearcher btree_ad(btree);
  const DiskAdSearcher snapshot_ad(snapshot);
  size_t ran = 0;
  for (const PointId pid : eval::SampleQueryPids(db, 120, 902)) {
    const std::vector<Value> q(db.point(pid).begin(), db.point(pid).end());
    const size_t n0 = 1 + (ran % 3), n1 = n0 + (ran % 4);
    const size_t k = 1 + (ran % 10);
    auto a = flat_ad.FrequentKnMatch(q, n0, n1, k);
    auto b = packed_ad.FrequentKnMatch(q, n0, n1, k);
    auto c = btree_ad.FrequentKnMatch(q, n0, n1, k);
    auto d = snapshot_ad.FrequentKnMatch(q, n0, n1, k);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(d.ok());
    ExpectIdenticalSets(a.value().per_n_sets, b.value().per_n_sets);
    ExpectIdenticalSets(a.value().per_n_sets, c.value().per_n_sets);
    ExpectIdenticalSets(a.value().per_n_sets, d.value().per_n_sets);
    EXPECT_EQ(a.value().matches, b.value().matches);
    EXPECT_EQ(a.value().matches, c.value().matches);
    EXPECT_EQ(a.value().matches, d.value().matches);
    EXPECT_EQ(a.value().attributes_retrieved,
              b.value().attributes_retrieved);
    EXPECT_EQ(a.value().attributes_retrieved,
              c.value().attributes_retrieved);
    EXPECT_EQ(a.value().attributes_retrieved,
              d.value().attributes_retrieved);
    ++ran;
  }

  // Governed: a tight attribute budget trips every organization at the
  // same pop, with the same status, cost and partial answer.
  const std::vector<Value> q(db.point(7).begin(), db.point(7).end());
  constexpr uint64_t kBudget = 300;
  auto full = flat_ad.FrequentKnMatch(q, 2, 6, 10);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.value().attributes_retrieved, 4 * kBudget);
  const auto trip = [&](const auto& searcher) {
    QueryContext ctx;
    ctx.budgets().max_attributes = kBudget;
    const StatusCode code =
        searcher.FrequentKnMatch(q, 2, 6, 10, &ctx).status().code();
    EXPECT_TRUE(ctx.tripped());
    return std::make_pair(code, ctx.trip());
  };
  const auto [want_code, want] = trip(flat_ad);
  EXPECT_EQ(want_code, StatusCode::kResourceExhausted);
  EXPECT_GE(want.attributes_retrieved, kBudget);
  EXPECT_LT(want.attributes_retrieved, full.value().attributes_retrieved);
  for (const auto& [code, got] :
       {trip(packed_ad), trip(btree_ad), trip(snapshot_ad)}) {
    EXPECT_EQ(code, want_code);
    EXPECT_EQ(got.attributes_retrieved, want.attributes_retrieved);
    EXPECT_EQ(got.pops, want.pops);
    ExpectIdenticalSets(got.partial_per_n_sets, want.partial_per_n_sets);
  }
}

// Packed columns compose with the approximate mode: the packed and
// flat kernels early-stop at the same pop, so even approximate answers
// (and their bounds) stay bit-identical across representations.
TEST(PackedDifferentialTest, ApproxOnPackedMatchesApproxOnFlat) {
  const Dataset db = datagen::MakeUniform(4000, 8, 48);
  AdSearcher flat(db);
  AdSearcher packed(db);
  packed.EnablePackedColumns();
  internal::AdScratch scratch;
  ApproxPolicy policy;
  policy.epsilon = 0.1;
  for (const PointId pid : eval::SampleQueryPids(db, 100, 903)) {
    auto q = db.point(pid);
    auto a = flat.KnMatch(q, 5, 10, {}, &scratch, nullptr, policy);
    auto b = packed.KnMatch(q, 5, 10, {}, &scratch, nullptr, policy);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().matches, b.value().matches) << "pid " << pid;
    EXPECT_EQ(a.value().bound.guaranteed, b.value().bound.guaranteed);
    EXPECT_EQ(a.value().bound.early_stopped, b.value().bound.early_stopped);
    EXPECT_EQ(a.value().attributes_retrieved,
              b.value().attributes_retrieved);
  }
}

}  // namespace
}  // namespace knmatch
