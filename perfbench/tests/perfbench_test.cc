// Unit tests for the benchmark's own helpers, plus a tiny-size smoke run
// of every workload in both modes.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "heldout.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/serve/json.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(StatsTest, PercentileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(Percentile(Range(100), 50), 50.5);
  EXPECT_DOUBLE_EQ(Percentile(Range(101), 99), 100);
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 100), 3);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(StatsTest, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(StatsTest, SupportedTailFallsBackToTheHighestSupportedPercentile) {
  const Tail full = SupportedTail(Range(1000), 99);
  EXPECT_EQ(full.percentile, 99);
  EXPECT_EQ(full.beyond, 10u);
  EXPECT_TRUE(full.supported());

  const Tail partial = SupportedTail(Range(500), 99);  // 5 beyond p99
  EXPECT_EQ(partial.percentile, 95);
  EXPECT_EQ(partial.beyond, 25u);
  EXPECT_DOUBLE_EQ(partial.value, Percentile(Range(500), 95));

  const Tail none = SupportedTail(Range(15), 99);
  EXPECT_FALSE(none.supported());
  EXPECT_EQ(none.percentile, 100);
  EXPECT_DOUBLE_EQ(none.value, 15);
}

TEST(HeldOutTest, SameSeedGivesTheSameQueries) {
  const knmatch::Dataset db = knmatch::datagen::MakeUniform(500, 8, 3);
  const auto a = MakeHeldOutQueries(db, 64, 7);
  const auto b = MakeHeldOutQueries(db, 64, 7);
  const auto c = MakeHeldOutQueries(db, 64, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(HeldOutTest, QueriesAreNotDatasetRows) {
  const knmatch::Dataset db = knmatch::datagen::MakeUniform(500, 8, 3);
  for (const auto& q : MakeHeldOutQueries(db, 64, 11)) {
    ASSERT_EQ(q.size(), 8u);
    for (const double v : q) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    for (size_t row = 0; row < db.size(); ++row) {
      const auto p = db.point(static_cast<knmatch::PointId>(row));
      EXPECT_FALSE(std::equal(p.begin(), p.end(), q.begin()));
    }
  }
}

TEST(SpansTest, SelfTimeSubtractsChildren) {
  SpanLog log;
  const int64_t root = log.Begin("root", 1, SpanLog::kNoParent);
  const int64_t child = log.Begin("child", 1, root);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.End(child);
  log.End(root);
  const auto self = log.SelfSecondsByName();
  EXPECT_GT(self.at("child"), 0.015);
  EXPECT_LT(self.at("root"), self.at("child"));
  EXPECT_LT(log.MedianUnattributedPct(), 50);
}

void SmokeRun(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 3;
  cfg.seconds = 0.4;
  cfg.trace = trace;
  cfg.tiny = true;
  cfg.threads = 2;
  RunContext ctx(cfg);
  ASSERT_TRUE(RunWorkload(&ctx));
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  EXPECT_TRUE(ctx.report.Missing(defs).empty());
  EXPECT_GT(ctx.attempted, 0u);
  EXPECT_EQ(ctx.wrong, 0u);
  auto parsed = knmatch::serve::ParseJson(ctx.report.ResultJson(true, ctx.attempted, ctx.failed, defs));
  ASSERT_TRUE(parsed.ok());
  const auto* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->object.size(), defs.size());
  for (const MetricDef& d : defs) {
    const auto* m = metrics->Find(d.name);
    ASSERT_NE(m, nullptr) << d.name;
    ASSERT_NE(m->Find("unit"), nullptr) << d.name;
    EXPECT_EQ(m->Find("unit")->string_value, d.unit) << d.name;
    EXPECT_FALSE(std::string(d.unit).empty());
    ASSERT_NE(m->Find("value"), nullptr) << d.name;
    EXPECT_TRUE(m->Find("value")->is_number()) << d.name;
  }
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, EveryEndToEndMetricIsPrintedWithItsUnit) { SmokeRun(GetParam(), false); }
TEST_P(SmokeTest, EveryPerLayerMetricIsPrintedWithItsUnit) { SmokeRun(GetParam(), true); }

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest, ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
