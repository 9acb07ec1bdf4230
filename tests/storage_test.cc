#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "knmatch/common/random.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/paged_file.h"
#include "knmatch/storage/row_store.h"

namespace knmatch {
namespace {

TEST(DiskSimulatorTest, FirstReadOfStreamIsRandom) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 5);
  EXPECT_EQ(disk.random_reads(), 1u);
  EXPECT_EQ(disk.sequential_reads(), 0u);
}

TEST(DiskSimulatorTest, ReleasedStreamsAreReusedAndSeekAfresh) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  size_t first;
  {
    const DiskSimulator::StreamLease lease(&disk, 2);
    first = lease[0];
    disk.RecordRead(lease[0], 5);
    disk.RecordRead(lease[1], 7);
  }
  EXPECT_EQ(disk.stream_slots(), 2u);
  const DiskSimulator::StreamLease lease(&disk, 2);
  EXPECT_EQ(disk.stream_slots(), 2u) << "released ids are reused";
  EXPECT_TRUE(lease[0] == first || lease[1] == first);
  // Page 6 neighbours both pages the old leases last read, yet a reused
  // stream has no position: its first read seeks, and page 5 is no
  // longer buffered on it.
  disk.RecordRead(lease[0], 6);
  disk.RecordRead(lease[1], 5);
  EXPECT_EQ(disk.random_reads(), 4u);
  EXPECT_EQ(disk.sequential_reads(), 0u);
}

TEST(DiskSimulatorTest, ThreadReadsCountOnlyTheCallingThread) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  const uint64_t base = DiskSimulator::thread_reads();
  disk.RecordRead(s, 1);
  std::thread other([&disk] {
    const size_t t = disk.OpenStream();
    disk.RecordRead(t, 3);
    disk.RecordRead(t, 8);
  });
  other.join();
  disk.RecordRead(s, 1);  // own buffer: no physical read
  EXPECT_EQ(DiskSimulator::thread_reads() - base, 1u);
  EXPECT_EQ(disk.total_reads(), 3u);
}

TEST(DiskSimulatorTest, AdjacentReadsAreSequentialBothDirections) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 5);
  disk.RecordRead(s, 6);  // forward
  disk.RecordRead(s, 5);  // backward
  EXPECT_EQ(disk.sequential_reads(), 2u);
  EXPECT_EQ(disk.random_reads(), 1u);
}

TEST(DiskSimulatorTest, RereadOfCurrentPageIsFree) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(DiskSimulatorTest, JumpIsRandom) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 1);
  disk.RecordRead(s, 7);
  EXPECT_EQ(disk.random_reads(), 2u);
}

TEST(DiskSimulatorTest, StreamsAreIndependent) {
  DiskSimulator disk;
  disk.AllocatePages(10);
  const size_t a = disk.OpenStream();
  const size_t b = disk.OpenStream();
  disk.RecordRead(a, 1);
  disk.RecordRead(b, 2);  // adjacent to a's page, but b's first read
  EXPECT_EQ(disk.random_reads(), 2u);
  disk.RecordRead(a, 2);  // still sequential for a
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

TEST(DiskSimulatorTest, SimulatedTimeUsesConfig) {
  DiskConfig config;
  config.sequential_read_ms = 1.0;
  config.random_read_ms = 10.0;
  DiskSimulator disk(config);
  disk.AllocatePages(4);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 0);  // random
  disk.RecordRead(s, 1);  // sequential
  disk.RecordRead(s, 2);  // sequential
  EXPECT_DOUBLE_EQ(disk.SimulatedIoSeconds(), (10.0 + 2.0) / 1000.0);
}

TEST(DiskSimulatorTest, ResetCountersClearsAndReseeks) {
  DiskSimulator disk;
  disk.AllocatePages(4);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 0);
  disk.RecordRead(s, 1);
  disk.ResetCounters();
  EXPECT_EQ(disk.total_reads(), 0u);
  // After a reset the stream's first read counts as a seek again.
  disk.RecordRead(s, 2);
  EXPECT_EQ(disk.random_reads(), 1u);
}

TEST(DiskSimulatorTest, SingleHeadModeInterleavingDestroysLocality) {
  DiskConfig config;
  config.single_head = true;
  DiskSimulator disk(config);
  disk.AllocatePages(100);
  const size_t a = disk.OpenStream();
  const size_t b = disk.OpenStream();
  // Two interleaved forward scans: per-stream each is sequential, but
  // a single head bounces between them.
  disk.RecordRead(a, 0);
  disk.RecordRead(b, 50);
  disk.RecordRead(a, 1);
  disk.RecordRead(b, 51);
  EXPECT_EQ(disk.random_reads(), 4u);
  EXPECT_EQ(disk.sequential_reads(), 0u);

  // The same pattern with per-stream buffering: only the two initial
  // seeks are random.
  DiskSimulator buffered;
  buffered.AllocatePages(100);
  const size_t c = buffered.OpenStream();
  const size_t d = buffered.OpenStream();
  buffered.RecordRead(c, 0);
  buffered.RecordRead(d, 50);
  buffered.RecordRead(c, 1);
  buffered.RecordRead(d, 51);
  EXPECT_EQ(buffered.random_reads(), 2u);
  EXPECT_EQ(buffered.sequential_reads(), 2u);
}

TEST(DiskSimulatorTest, SingleHeadRereadIsFree) {
  DiskConfig config;
  config.single_head = true;
  DiskSimulator disk(config);
  disk.AllocatePages(10);
  const size_t s = disk.OpenStream();
  disk.RecordRead(s, 3);
  disk.RecordRead(s, 3);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(PagedFileTest, RoundTripsPageImages) {
  DiskSimulator disk;
  PagedFile file(&disk);
  std::vector<std::byte> image;
  PutScalar<double>(&image, 3.25);
  PutScalar<uint32_t>(&image, 77);
  const size_t page = file.AppendPage(image);
  EXPECT_EQ(page, 0u);
  EXPECT_EQ(file.num_pages(), 1u);

  const size_t s = disk.OpenStream();
  auto read = file.ReadPage(s, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().size(), image.size());
  EXPECT_EQ(GetScalar<double>(read.value(), 0), 3.25);
  EXPECT_EQ(GetScalar<uint32_t>(read.value(), sizeof(double)), 77u);
  EXPECT_EQ(disk.total_reads(), 1u);
}

TEST(PagedFileTest, ShortImagesKeepTheirLength) {
  DiskSimulator disk;
  PagedFile file(&disk);
  std::vector<std::byte> image = {std::byte{0xFF}};
  file.AppendPage(image);
  auto read = file.PeekPage(0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(read.value()[0]), 0xFF);
}

TEST(PagedFileTest, CrossFileAdjacencyIsPhysicalAdjacency) {
  DiskSimulator disk;
  PagedFile a(&disk);
  std::vector<std::byte> img = {std::byte{1}};
  a.AppendPage(img);
  a.AppendPage(img);
  PagedFile b(&disk);
  b.AppendPage(img);
  const size_t s = disk.OpenStream();
  a.ReadPage(s, 1);  // global page 1 (random, first read)
  b.ReadPage(s, 0);  // global page 2 — adjacent globally, but that is
                     // genuinely how it would sit on disk: sequential.
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

TEST(RowStoreTest, ReadRowMatchesDataset) {
  Dataset db = datagen::MakeUniform(300, 7, 5);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  EXPECT_EQ(rows.size(), 300u);
  EXPECT_EQ(rows.dims(), 7u);
  // Frame overhead (length header + checksum) comes off the page.
  EXPECT_EQ(rows.rows_per_page(),
            (4096u - kPageFrameOverhead) / (7 * sizeof(Value)));

  const size_t s = rows.OpenStream();
  std::vector<Value> buf;
  for (PointId pid : {PointId{0}, PointId{150}, PointId{299}}) {
    auto row = rows.ReadRow(s, pid, &buf);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row.value().size(), 7u);
    for (size_t dim = 0; dim < 7; ++dim) {
      EXPECT_EQ(row.value()[dim], db.at(pid, dim));
    }
  }
}

TEST(RowStoreTest, ForEachRowVisitsAllInOrderSequentially) {
  Dataset db = datagen::MakeUniform(500, 4, 6);
  DiskSimulator disk;
  RowStore rows(db, &disk);
  const size_t s = rows.OpenStream();
  PointId expected = 0;
  Status io = rows.ForEachRow(s, [&](PointId pid, std::span<const Value> p) {
    ASSERT_EQ(pid, expected++);
    for (size_t dim = 0; dim < 4; ++dim) {
      ASSERT_EQ(p[dim], db.at(pid, dim));
    }
  });
  EXPECT_TRUE(io.ok());
  EXPECT_EQ(expected, 500u);
  // One random seek to page 0, the rest sequential.
  EXPECT_EQ(disk.random_reads(), 1u);
  EXPECT_EQ(disk.total_reads(), rows.num_pages());
}

TEST(ColumnStoreTest, EntriesMatchInMemorySortedColumns) {
  Dataset db = datagen::MakeUniform(700, 5, 8);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  SortedColumns reference(db);
  EXPECT_EQ(store.dims(), 5u);
  EXPECT_EQ(store.column_size(), 700u);

  const size_t s = store.OpenStream();
  for (size_t dim = 0; dim < 5; ++dim) {
    for (size_t idx : {size_t{0}, size_t{341}, size_t{342}, size_t{699}}) {
      auto entry = store.ReadEntry(s, dim, idx);
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(entry.value(), reference.entry(dim, idx))
          << "dim=" << dim << " idx=" << idx;
    }
  }
}

TEST(ColumnStoreTest, LowerBoundMatchesInMemory) {
  Dataset db = datagen::MakeUniform(900, 3, 9);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  SortedColumns reference(db);
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dim = trial % 3;
    const Value v = rng.Uniform(-0.05, 1.05);
    EXPECT_EQ(store.LowerBound(dim, v), reference.LowerBound(dim, v));
  }
}

TEST(ColumnStoreTest, SequentialEntryReadsShareAPage) {
  Dataset db = datagen::MakeUniform(1000, 2, 10);
  DiskSimulator disk;
  ColumnStore store(db, &disk);
  const size_t s = store.OpenStream();
  // Entries 0..340 live in one page: one physical read.
  for (size_t idx = 0; idx < store.entries_per_page(); ++idx) {
    store.ReadEntry(s, 0, idx);
  }
  EXPECT_EQ(disk.total_reads(), 1u);
  // Crossing into the next page adds one sequential read.
  store.ReadEntry(s, 0, store.entries_per_page());
  EXPECT_EQ(disk.total_reads(), 2u);
  EXPECT_EQ(disk.sequential_reads(), 1u);
}

}  // namespace
}  // namespace knmatch
