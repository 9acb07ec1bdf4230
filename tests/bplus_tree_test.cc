#include "knmatch/storage/bplus_tree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/core/ad_algorithm.h"

namespace knmatch {
namespace {

std::vector<ColumnEntry> SortedEntries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnEntry> entries(count);
  for (size_t i = 0; i < count; ++i) {
    entries[i] = ColumnEntry{rng.Uniform01(), static_cast<PointId>(i)};
  }
  std::sort(entries.begin(), entries.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  return entries;
}

TEST(BPlusTreeTest, EmptyTree) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const size_t s = tree.OpenStream();
  EXPECT_FALSE(tree.SeekLowerBound(s, 0.5).Valid());
  EXPECT_FALSE(tree.SeekBefore(s, 0.5).Valid());
  EXPECT_EQ(tree.RankOf(s, 0.5).value(), 0u);
}

TEST(BPlusTreeTest, BulkLoadSingleLeaf) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(100, 1);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, BulkLoadMultiLevel) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(100000, 2);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), 100000u);
  EXPECT_GE(tree.height(), 2u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, ForwardScanVisitsAllInOrder) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(5000, 3);
  tree.BulkLoad(entries);
  const size_t s = tree.OpenStream();
  auto it = tree.SeekLowerBound(s, -1.0);
  for (const ColumnEntry& expected : entries) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, BackwardScanVisitsAllInReverse) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(5000, 4);
  tree.BulkLoad(entries);
  const size_t s = tree.OpenStream();
  auto it = tree.SeekBefore(s, 2.0);  // after everything
  for (size_t i = entries.size(); i-- > 0;) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), entries[i]);
    it.Prev();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, SeekAgreesWithStdLowerBound) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(3000, 5);
  tree.BulkLoad(entries);
  Rng rng(77);
  const size_t s = tree.OpenStream();
  for (int trial = 0; trial < 300; ++trial) {
    const Value v = rng.Uniform(-0.1, 1.1);
    auto expected = std::lower_bound(
        entries.begin(), entries.end(), v,
        [](const ColumnEntry& e, Value t) { return e.value < t; });
    auto it = tree.SeekLowerBound(s, v);
    if (expected == entries.end()) {
      EXPECT_FALSE(it.Valid());
    } else {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.Get(), *expected);
    }
    // RankOf matches the std::lower_bound index.
    EXPECT_EQ(tree.RankOf(s, v).value(),
              static_cast<size_t>(expected - entries.begin()));
    // SeekBefore gives the predecessor.
    auto before = tree.SeekBefore(s, v);
    if (expected == entries.begin()) {
      EXPECT_FALSE(before.Valid());
    } else {
      ASSERT_TRUE(before.Valid());
      EXPECT_EQ(before.Get(), *(expected - 1));
    }
  }
}

TEST(BPlusTreeTest, SeekChargesRootToLeafPages) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  tree.BulkLoad(SortedEntries(100000, 6));
  const size_t s = disk.OpenStream();
  // Use the tree's stream accounting: a fresh stream's seek charges
  // height() node visits (all random for the first seek).
  (void)s;
  const size_t stream = tree.OpenStream();
  disk.ResetCounters();
  tree.SeekLowerBound(stream, 0.5);
  EXPECT_EQ(disk.total_reads(), tree.height());
}

TEST(BPlusTreeTest, InsertIntoEmptyAndGrow) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  Rng rng(7);
  std::vector<ColumnEntry> reference;
  for (PointId pid = 0; pid < 2000; ++pid) {
    const ColumnEntry e{rng.Uniform01(), pid};
    tree.Insert(e);
    reference.push_back(e);
    if (pid % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "after " << pid + 1;
    }
  }
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GE(tree.height(), 2u);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  std::sort(reference.begin(), reference.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  const size_t s = tree.OpenStream();
  auto it = tree.SeekLowerBound(s, -1.0);
  for (const ColumnEntry& expected : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTreeTest, InsertAfterBulkLoad) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(1000, 8);
  tree.BulkLoad(entries);
  Rng rng(9);
  for (PointId pid = 1000; pid < 1500; ++pid) {
    tree.Insert(ColumnEntry{rng.Uniform01(), pid});
  }
  EXPECT_EQ(tree.size(), 1500u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, EraseExistingAndMissing) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(500, 10);
  tree.BulkLoad(entries);
  EXPECT_TRUE(tree.Erase(entries[250]).value());
  EXPECT_EQ(tree.size(), 499u);
  EXPECT_FALSE(tree.Erase(entries[250]).value());  // already gone
  EXPECT_FALSE(tree.Erase(ColumnEntry{2.0, 1}).value());
  EXPECT_TRUE(tree.CheckInvariants().ok());

  // The erased entry is skipped by scans.
  const size_t s = tree.OpenStream();
  auto it = tree.SeekLowerBound(s, -1.0);
  size_t seen = 0;
  while (it.Valid()) {
    EXPECT_FALSE(it.Get() == entries[250]);
    ++seen;
    it.Next();
  }
  EXPECT_EQ(seen, 499u);
}

TEST(BPlusTreeTest, EraseWholeLeafThenIterate) {
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(1000, 11);
  tree.BulkLoad(entries);
  // Erase a contiguous run wider than one leaf (capacity 256).
  for (size_t i = 100; i < 400; ++i) {
    ASSERT_TRUE(tree.Erase(entries[i]).value());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const size_t s = tree.OpenStream();
  auto it = tree.SeekLowerBound(s, -1.0);
  size_t seen = 0;
  while (it.Valid()) {
    ++seen;
    it.Next();
  }
  EXPECT_EQ(seen, 700u);
  // Backward over the hole as well.
  auto back = tree.SeekBefore(s, 2.0);
  seen = 0;
  while (back.Valid()) {
    ++seen;
    back.Prev();
  }
  EXPECT_EQ(seen, 700u);
}

TEST(BPlusTreeTest, LeafWalksChargeEveryLeafTheyPass) {
  // Six full leaves; erasing leaves 2 and 3 (lazily, no reclamation)
  // leaves two empty pages on the chain between leaves 1 and 4.
  DiskSimulator disk;
  BPlusTree tree(&disk);
  auto entries = SortedEntries(6 * 256, 12);
  tree.BulkLoad(entries);
  for (size_t i = 2 * 256; i < 4 * 256; ++i) {
    ASSERT_TRUE(tree.Erase(entries[i]).value());
  }
  disk.ResetCounters();  // the erases' descents
  const size_t s = tree.OpenStream();
  auto it = tree.SeekLowerBound(s, -1.0);
  const uint64_t seek = disk.total_reads();
  EXPECT_EQ(seek, tree.height());
  size_t seen = 0;
  for (; it.Valid(); it.Next()) ++seen;
  EXPECT_EQ(seen, 4u * 256);
  // Every leaf after the first is read once, the empty ones included.
  EXPECT_EQ(disk.total_reads() - seek, 5u);

  // The uncharged read and the charged step walk the same chain: from
  // leaf 1 both land on leaf 4, and the step pays for leaves 2, 3, 4.
  auto at = tree.SeekLowerBound(s, entries[256].value);
  const BPlusTree::LeafSpan leaf1 = at.leaf();
  EXPECT_EQ(at.leaf_offset(), 0u);
  ASSERT_EQ(leaf1.entries.size(), 256u);
  EXPECT_EQ(leaf1.entries.front(), entries[256]);
  const uint64_t before = disk.total_reads();
  const BPlusTree::LeafSpan leaf4 = tree.NextLeaf(leaf1.leaf, true);
  EXPECT_EQ(disk.total_reads(), before) << "NextLeaf reads uncharged";
  ASSERT_EQ(leaf4.entries.size(), 256u);
  EXPECT_EQ(leaf4.entries.front(), entries[4 * 256]);
  Result<uint32_t> landed = tree.ChargeLeafStep(s, leaf1.leaf, true);
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(landed.value(), leaf4.leaf);
  EXPECT_EQ(disk.total_reads() - before, 3u);
  // Back the other way, and off the chain's ends.
  EXPECT_EQ(tree.NextLeaf(leaf4.leaf, false).leaf, leaf1.leaf);
  EXPECT_EQ(tree.ChargeLeafStep(s, leaf4.leaf, false).value(), leaf1.leaf);
  const BPlusTree::LeafSpan last = tree.NextLeaf(leaf4.leaf, true);
  EXPECT_EQ(tree.NextLeaf(last.leaf, true).leaf, BPlusTree::kNoLeaf);
  EXPECT_TRUE(tree.NextLeaf(last.leaf, true).entries.empty());
}

TEST(BTreeColumnsTest, AdOverBTreesMatchesMemoryAdExactly) {
  Dataset db = datagen::MakeUniform(3000, 6, 12);
  DiskSimulator disk;
  BTreeColumns columns(db, &disk);
  DiskAdSearcher btree_ad(columns);
  AdSearcher mem(db);

  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> q(6);
    for (Value& v : q) v = rng.Uniform01();
    for (size_t n : {size_t{1}, size_t{3}, size_t{6}}) {
      auto a = btree_ad.KnMatch(q, n, 7);
      auto b = mem.KnMatch(q, n, 7);
      ASSERT_TRUE(a.ok());
      EXPECT_EQ(a.value().matches, b.value().matches);
      EXPECT_EQ(a.value().attributes_retrieved,
                b.value().attributes_retrieved);
    }
    auto fa = btree_ad.FrequentKnMatch(q, 2, 5, 9);
    auto fb = mem.FrequentKnMatch(q, 2, 5, 9);
    ASSERT_TRUE(fa.ok());
    EXPECT_EQ(fa.value().matches, fb.value().matches);
    EXPECT_EQ(fa.value().per_n_sets, fb.value().per_n_sets);
  }
}

TEST(BTreeColumnsTest, InsertPointThenSearchFindsIt) {
  Dataset db = datagen::MakeUniform(500, 4, 14);
  DiskSimulator disk;
  BTreeColumns columns(db, &disk);
  // Insert a point identical to an existing query target.
  std::vector<Value> coords = {0.21, 0.43, 0.65, 0.87};
  columns.InsertPoint(500, coords);
  EXPECT_EQ(columns.column_size(), 501u);

  DiskAdSearcher searcher(columns);
  auto r = searcher.KnMatch(coords, 4, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches[0].pid, 500u);
  EXPECT_EQ(r.value().matches[0].distance, 0.0);
}

}  // namespace
}  // namespace knmatch
