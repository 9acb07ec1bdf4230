// Tests for the observability subsystem's primitives: sharded counters,
// gauges, log-bucketed histograms, the metrics registry, the runtime
// kill switch, and the Prometheus/JSON exposition (golden outputs).
// Concurrency tests run under scripts/check_tsan.sh (filter Obs*), so
// they double as the data-race proof for the relaxed-atomic design.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "knmatch/core/ad_algorithm.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/exec/thread_pool.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/exposition.h"
#include "knmatch/obs/metrics.h"
#include "knmatch/storage/ingest.h"

namespace knmatch::obs {
namespace {

#if !KNMATCH_OBS_ENABLED

// KNMATCH_DISABLE_METRICS build: the only contract left is that the
// no-op types truly record nothing.
TEST(ObsMetricsTest, CompiledOutTypesRecordNothing) {
  EXPECT_FALSE(kMetricsCompiledIn);
  Counter c;
  c.Add(7);
  EXPECT_EQ(c.Value(), 0u);
  Histogram h;
  h.Observe(7);
  EXPECT_EQ(h.Snapshot().count, 0u);
}

#else

TEST(ObsCounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.Set(10);
  g.Add(-12);
  EXPECT_EQ(g.Value(), -2);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(ObsKillSwitchTest, DisabledMutatorsAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  SetEnabled(false);
  c.Add(7);
  g.Set(7);
  h.Observe(7);
  SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  c.Add(7);
  EXPECT_EQ(c.Value(), 7u);
}

TEST(ObsHistogramTest, BucketBoundaries) {
  // Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::BucketLowerRaw(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperRaw(1), 2.0);
  EXPECT_EQ(Histogram::BucketUpperRaw(10), 1024.0);
}

TEST(ObsHistogramTest, SnapshotCountsSumAndScale) {
  Histogram h(0.5);
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_raw, 6u);
  EXPECT_EQ(snap.scale, 0.5);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 2u);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(ObsHistogramTest, QuantileWithinBucketResolution) {
  Histogram h;
  for (int i = 0; i < 64; ++i) h.Observe(10);  // all in bucket [8, 16)
  EXPECT_EQ(h.Quantile(0.0), 8.0);  // lower bound of the only bucket
  const double median = h.Quantile(0.5);
  EXPECT_GE(median, 8.0);
  EXPECT_LE(median, 16.0);
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(ObsHistogramTest, ObserveSecondsUsesScale) {
  Histogram h(1e-9);  // observes nanoseconds, displays seconds
  h.ObserveSeconds(1.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum_raw, 1000000000u);
  EXPECT_NEAR(static_cast<double>(snap.sum_raw) * snap.scale, 1.0, 1e-9);
}

TEST(ObsRegistryTest, DedupsByNameAndLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "k=\"1\"", "help");
  Counter* b = reg.GetCounter("x_total", "k=\"1\"", "help");
  Counter* c = reg.GetCounter("x_total", "k=\"2\"", "help");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x_total", "", "help");
  Gauge* g = reg.GetGauge("y", "", "help");
  Histogram* h = reg.GetHistogram("z_seconds", "", "help", 1e-9);
  c->Add(5);
  g->Set(5);
  h->Observe(5);
  reg.Reset();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(reg.GetCounter("x_total", "", "help"), c);
}

TEST(ObsRegistryTest, SnapshotSortedByNameThenLabels) {
  MetricsRegistry reg;
  reg.GetCounter("b_total", "", "help");
  reg.GetCounter("a_total", "k=\"2\"", "help");
  reg.GetCounter("a_total", "k=\"1\"", "help");
  const std::vector<MetricSample> samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_EQ(samples[0].labels, "k=\"1\"");
  EXPECT_EQ(samples[1].name, "a_total");
  EXPECT_EQ(samples[1].labels, "k=\"2\"");
  EXPECT_EQ(samples[2].name, "b_total");
}

TEST(ObsCatalogTest, GlobalCatalogRegistersOnce) {
  const Catalog& cat = Cat();
  ASSERT_NE(cat.attrs_ad_memory, nullptr);
  ASSERT_NE(cat.queries_knmatch, nullptr);
  // Re-resolving the same (name, labels) lands on the same metric.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter(
                "knmatch_attributes_retrieved_total",
                "algo=\"ad_memory\"", ""),
            cat.attrs_ad_memory);
  EXPECT_EQ(BatchWorkerLatency(0), BatchWorkerLatency(0));
}

// ---------------------------------------------------------------------------
// Exposition goldens. A fixed local registry must render byte-for-byte
// stable output (Snapshot() sorts, so registration order is irrelevant).

class ObsExpositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Counter* a = reg_.GetCounter("test_requests_total", "kind=\"a\"",
                                 "Requests");
    Counter* b = reg_.GetCounter("test_requests_total", "kind=\"b\"",
                                 "Requests");
    Gauge* g = reg_.GetGauge("test_queue_depth", "", "Depth");
    Histogram* h =
        reg_.GetHistogram("test_latency_seconds", "", "Latency", 0.5);
    a->Add(3);
    b->Add(5);
    g->Set(-2);
    h->Observe(0);
    h->Observe(1);
    h->Observe(2);
    h->Observe(3);
  }
  MetricsRegistry reg_;
};

TEST_F(ObsExpositionTest, PrometheusGolden) {
  const std::string expected =
      "# HELP test_latency_seconds Latency\n"
      "# TYPE test_latency_seconds histogram\n"
      "test_latency_seconds_bucket{le=\"0\"} 1\n"
      "test_latency_seconds_bucket{le=\"1\"} 2\n"
      "test_latency_seconds_bucket{le=\"2\"} 4\n"
      "test_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "test_latency_seconds_sum 3\n"
      "test_latency_seconds_count 4\n"
      "# HELP test_queue_depth Depth\n"
      "# TYPE test_queue_depth gauge\n"
      "test_queue_depth -2\n"
      "# HELP test_requests_total Requests\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{kind=\"a\"} 3\n"
      "test_requests_total{kind=\"b\"} 5\n";
  EXPECT_EQ(RenderPrometheus(reg_), expected);
}

TEST_F(ObsExpositionTest, JsonGolden) {
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"test_latency_seconds\",\"type\":\"histogram\","
      "\"labels\":{},\"count\":4,\"sum\":3,\"buckets\":["
      "{\"le\":0,\"count\":1},{\"le\":1,\"count\":2},"
      "{\"le\":2,\"count\":4},{\"le\":\"+Inf\",\"count\":4}]},"
      "{\"name\":\"test_queue_depth\",\"type\":\"gauge\","
      "\"labels\":{},\"value\":-2},"
      "{\"name\":\"test_requests_total\",\"type\":\"counter\","
      "\"labels\":{\"kind\":\"a\"},\"value\":3},"
      "{\"name\":\"test_requests_total\",\"type\":\"counter\","
      "\"labels\":{\"kind\":\"b\"},\"value\":5}"
      "]}";
  EXPECT_EQ(RenderJson(reg_), expected);
}

TEST_F(ObsExpositionTest, RendersAreDeterministic) {
  EXPECT_EQ(RenderPrometheus(reg_), RenderPrometheus(reg_));
  EXPECT_EQ(RenderJson(reg_), RenderJson(reg_));
}

// ---------------------------------------------------------------------------
// Concurrency: hammer the primitives from the thread pool and require
// exact totals. Run under TSan via scripts/check_tsan.sh.

TEST(ObsConcurrencyTest, CountersSumExactlyUnderContention) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  exec::ThreadPool pool(8);
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 5000;
  pool.ParallelFor(kTasks, [&](size_t /*worker*/, size_t /*i*/) {
    for (size_t j = 0; j < kPerTask; ++j) {
      counter.Add();
      gauge.Add(1);
      histogram.Observe(j);
    }
  });
  EXPECT_EQ(counter.Value(), kTasks * kPerTask);
  EXPECT_EQ(gauge.Value(),
            static_cast<int64_t>(kTasks * kPerTask));
  EXPECT_EQ(histogram.Snapshot().count, kTasks * kPerTask);
  EXPECT_EQ(histogram.Snapshot().sum_raw,
            kTasks * (kPerTask * (kPerTask - 1) / 2));
}

TEST(ObsConcurrencyTest, ConcurrentRegistrationYieldsOneMetric) {
  MetricsRegistry reg;
  exec::ThreadPool pool(8);
  std::vector<Counter*> seen(64, nullptr);
  pool.ParallelFor(seen.size(), [&](size_t /*worker*/, size_t i) {
    seen[i] = reg.GetCounter("shared_total", "", "help");
    seen[i]->Add();
  });
  EXPECT_EQ(reg.size(), 1u);
  for (Counter* c : seen) EXPECT_EQ(c, seen[0]);
  EXPECT_EQ(seen[0]->Value(), seen.size());
}

// ---------------------------------------------------------------------------
// End-to-end: the catalog's cost metric must agree with what the AD
// engine itself reports (the paper's attributes-retrieved count).

TEST(ObsEndToEndTest, AttributesMetricMatchesAdAnswerStats) {
  const Dataset db = datagen::MakeUniform(400, 6, /*seed=*/7);
  AdSearcher searcher(db);
  MetricsRegistry::Global().Reset();
  const auto query = db.point(12);
  auto r = searcher.KnMatch(std::vector<Value>(query.begin(), query.end()),
                            /*n=*/4, /*k=*/5);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().attributes_retrieved, 0u);
  EXPECT_EQ(Cat().attrs_ad_memory->Value(),
            r.value().attributes_retrieved);
  EXPECT_EQ(Cat().queries_knmatch->Value(), 1u);
  EXPECT_EQ(Cat().latency_knmatch->Snapshot().count, 1u);
  const uint64_t pops = Cat().pops_ad_memory->Value();
  EXPECT_GT(pops, 0u);

  // Every disk organization pops exactly like the memory kernel. The
  // sorted-run stores feed the disk AD counters, the tree organizations
  // the B+-tree ones, and neither touches the other's.
  DiskSimulator disk;
  const ColumnStore flat(db, &disk);
  const PackedColumnStore packed(db, &disk);
  const BTreeColumns btree(db, &disk);
  const LiveColumnIndex live(db, &disk);
  const auto pinned = live.PinSnapshot();
  const SnapshotColumns snapshot(pinned->trees, pinned->pid_bound);
  const auto expect_cost = [&](const auto& columns, Counter* attrs,
                               Counter* pops_counter, Counter* other) {
    MetricsRegistry::Global().Reset();
    auto d = DiskAdSearcher(columns).KnMatch(
        std::vector<Value>(query.begin(), query.end()), 4, 5);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().attributes_retrieved, r.value().attributes_retrieved);
    EXPECT_EQ(attrs->Value(), d.value().attributes_retrieved);
    EXPECT_EQ(pops_counter->Value(), pops);
    EXPECT_EQ(other->Value(), 0u);
  };
  expect_cost(flat, Cat().attrs_ad_disk, Cat().pops_ad_disk,
              Cat().attrs_ad_btree);
  expect_cost(packed, Cat().attrs_ad_disk, Cat().pops_ad_disk,
              Cat().attrs_ad_btree);
  expect_cost(btree, Cat().attrs_ad_btree, Cat().pops_ad_btree,
              Cat().attrs_ad_disk);
  expect_cost(snapshot, Cat().attrs_ad_btree, Cat().pops_ad_btree,
              Cat().attrs_ad_disk);
}

#endif  // KNMATCH_OBS_ENABLED

}  // namespace
}  // namespace knmatch::obs
