#include "probes.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "knmatch/cache/query_cache.h"
#include "knmatch/datagen/zipfian.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"
#include "knmatch/serve/server.h"
#include "knmatch/shard/shard_router.h"
#include "metrics_diff.h"
#include "openloop.h"
#include "serve_util.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using knmatch::SimilarityEngine;
using knmatch::Value;

namespace {

const std::vector<Value>& QueryAt(const ProbeData& d, size_t i) {
  return (*d.queries)[i % d.queries->size()];
}

/// How many probe calls to make: `full` normally, `tiny` in the smoke
/// test.
size_t Calls(const RunContext* ctx, size_t full, size_t tiny) {
  return ctx->cfg.tiny ? tiny : full;
}

/// Direct KnMatch / FrequentKnMatch calls with a QueryTrace installed;
/// returns the sequential k-n-match rate (queries/s).
double ProbeCore(RunContext* ctx, const ProbeData& d,
                 const SimilarityEngine& engine) {
  std::vector<double> ms;
  double locate = 0, ascend = 0, rank = 0;
  uint64_t attrs = 0, pops = 0;
  const Clock::time_point budget_end = Clock::now() + std::chrono::seconds(3);
  const size_t calls = Calls(ctx, 1000, 40);
  for (size_t i = 0; i < calls && Clock::now() < budget_end; ++i) {
    knmatch::obs::QueryTrace trace;
    const Clock::time_point start = Clock::now();
    bool ok = false;
    {
      knmatch::obs::TraceScope scope(&trace);
      ScopedSpan span(ctx->tracing, "SimilarityEngine::KnMatch", ctx->NextRequest());
      ok = engine.KnMatch(QueryAt(d, i), kN, kK).ok();
    }
    ms.push_back(Ms(start, Clock::now()));
    ++ctx->attempted;
    if (!ok) ++ctx->failed;
    locate += trace.phase_seconds(knmatch::obs::Phase::kLocate);
    ascend += trace.phase_seconds(knmatch::obs::Phase::kAscend);
    attrs += trace.counters().attributes_retrieved;
    pops += trace.counters().heap_pops;
  }
  const size_t frequent_calls = Calls(ctx, 200, 10);
  for (size_t i = 0; i < frequent_calls; ++i) {
    knmatch::obs::QueryTrace trace;
    {
      knmatch::obs::TraceScope scope(&trace);
      ScopedSpan span(ctx->tracing, "SimilarityEngine::FrequentKnMatch",
                      ctx->NextRequest());
      ++ctx->attempted;
      if (!engine.FrequentKnMatch(QueryAt(d, i), kN0, kN1, kK).ok()) ++ctx->failed;
    }
    rank += trace.phase_seconds(knmatch::obs::Phase::kRank);
  }
  const double m = static_cast<double>(ms.size());
  Report& r = ctx->report;
  r.Set("core.query_ms_p50", Median(ms));
  r.SetTail("core.query_ms_p99", ms, 99);
  r.Set("core.locate_us", locate / m * 1e6);
  r.Set("core.ascend_ms", ascend / m * 1e3);
  r.Set("core.rank_us", rank / static_cast<double>(frequent_calls) * 1e6);
  r.Set("core.attrs_per_query", static_cast<double>(attrs) / m);
  r.Set("core.pops_per_query", static_cast<double>(pops) / m);
  r.Set("core.ns_per_pop", pops > 0 ? ascend * 1e9 / static_cast<double>(pops) : 0);
  double total_ms = 0;
  for (const double x : ms) total_ms += x;
  return total_ms > 0 ? m * 1e3 / total_ms : 0;
}

/// Batch calls of eight queries per worker, the batch workload's shape.
void ProbeExec(RunContext* ctx, const ProbeData& d, const SimilarityEngine& engine,
               double sequential_qps) {
  const size_t threads = ctx->cfg.threads;
  const size_t batch = 8 * threads;
  std::vector<double> batch_ms;
  size_t queries = 0;
  const MetricMap before = ScrapeProcess();
  const Clock::time_point budget_end =
      Clock::now() + std::chrono::milliseconds(1500);
  for (size_t b = 0; b < Calls(ctx, 200, 4) && Clock::now() < budget_end; ++b) {
    knmatch::exec::BatchRequest request;
    for (size_t i = 0; i < batch; ++i) request.queries.push_back(QueryAt(d, b * batch + i));
    request.options.threads = threads;
    const Clock::time_point start = Clock::now();
    auto result = [&] {
      ScopedSpan span(ctx->tracing, "SimilarityEngine::KnMatchBatch", ctx->NextRequest());
      return engine.KnMatchBatch(request, kN, kK);
    }();
    batch_ms.push_back(Ms(start, Clock::now()));
    ctx->attempted += batch;
    if (!result.ok()) {
      ctx->failed += batch;
      continue;
    }
    for (const auto& s : result.value().statuses) ctx->failed += s.ok() ? 0 : 1;
    queries += batch;
  }
  const MetricMap after = ScrapeProcess();
  double wall_s = 0;
  for (const double x : batch_ms) wall_s += x / 1e3;
  const double batch_qps = wall_s > 0 ? static_cast<double>(queries) / wall_s : 0;
  Report& r = ctx->report;
  r.Set("exec.batch_ms", Median(batch_ms));
  r.Set("exec.pool_efficiency",
        sequential_qps > 0 ? batch_qps / (static_cast<double>(threads) * sequential_qps) : 0);
  r.Set("exec.worker_busy_share",
        wall_s > 0 ? DeltaPrefix(before, after, "knmatch_batch_query_seconds_sum") /
                         (wall_s * static_cast<double>(threads))
                   : 0);
}

/// A Zipf(1.1) stream over a pool of the held-out queries, on an engine
/// whose result cache holds fewer answers than the pool has queries, so
/// the tail keeps missing and evicting. Each call is a hit or a miss by
/// the cache's own counters; answers are checked against the cache-free
/// `engine`.
void ProbeCache(RunContext* ctx, const ProbeData& d, const SimilarityEngine& engine) {
  knmatch::Dataset pool;
  for (size_t i = 0; i < std::min<size_t>(256, d.queries->size()); ++i) pool.Append(QueryAt(d, i));
  knmatch::datagen::ZipfianQueryMixSpec spec;
  spec.pool_size = pool.size();
  spec.count = Calls(ctx, 2000, 100);
  spec.skew = 1.1;
  spec.seed = ctx->cfg.seed;
  const auto stream = knmatch::datagen::MakeZipfianQueryMix(pool, spec);

  SimilarityEngine cached{knmatch::Dataset(*d.db)};
  knmatch::cache::CacheConfig config;
  config.max_bytes = 128 << 10;
  cached.EnableCache(config);
  (void)cached.KnMatch(std::vector<Value>(d.db->dims(), 0.5), kN, kK);  // lazy build
  const knmatch::cache::CacheStats before = cached.cache()->Stats();
  std::map<std::vector<Value>, knmatch::KnMatchResult> reference;
  std::vector<double> miss_ms, hit_us;
  for (const std::vector<Value>& q : stream) {
    const uint64_t hits0 = cached.cache()->Stats().hits;
    const Clock::time_point start = Clock::now();
    auto answer = cached.KnMatch(q, kN, kK);
    const double ms = Ms(start, Clock::now());
    if (cached.cache()->Stats().hits > hits0) {
      hit_us.push_back(ms * 1e3);
    } else {
      miss_ms.push_back(ms);
    }
    ++ctx->attempted;
    if (!answer.ok()) {
      ++ctx->failed;
      continue;
    }
    if (reference.count(q) == 0) {
      auto direct = engine.KnMatch(q, kN, kK);
      if (direct.ok()) reference[q] = std::move(direct.value());
    }
    if (!SameAnswer(answer.value(), reference[q])) {
      ++ctx->failed;
      ++ctx->wrong;
    }
  }
  const knmatch::cache::CacheStats after = cached.cache()->Stats();
  const double lookups =
      static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));
  Report& r = ctx->report;
  r.Set("cache.miss_ms", Median(miss_ms));
  r.Set("cache.hit_us", Median(hit_us));
  r.Set("cache.hit_ratio",
        lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0);
  r.Set("cache.evictions", static_cast<double>(after.evictions - before.evictions));
  r.Set("cache.entries", static_cast<double>(after.entries));
}

/// An HTTP server over the probe engine: an open-loop burst at half
/// the two workers' capacity, then the same requests replayed unloaded.
void ProbeServe(RunContext* ctx, const ProbeData& d, const SimilarityEngine& engine) {
  knmatch::serve::HttpServer server(&engine);
  if (!server.Start().ok()) {
    ++ctx->attempted;
    ++ctx->failed;
    return;
  }
  const auto body_for = [&](uint64_t r) {
    return KnMatchBody(QueryAt(d, r), kN, kK);
  };
  std::map<uint64_t, knmatch::KnMatchResult> direct;
  const auto direct_call = [&](uint64_t r) {
    auto result = engine.KnMatch(QueryAt(d, r), kN, kK);
    if (result.ok()) direct[r] = std::move(result.value());
  };
  // Size the burst from an unloaded round trip.
  std::vector<uint64_t> warm(Calls(ctx, 20, 4));
  for (size_t i = 0; i < warm.size(); ++i) warm[i] = i;
  const Unloaded calib = MeasureUnloaded(server.port(), warm, body_for, direct_call);
  const double rtt_ms = std::max(0.05, Median(calib.rtt_ms));
  const knmatch::serve::ServerStats before = server.Stats();

  OpenLoopConfig config;
  config.port = server.port();
  config.rate = std::min(2000.0, 0.5 * 2 * 1e3 / rtt_ms);
  config.seconds = ctx->cfg.tiny ? 0.2 : 1.0;
  config.connections = ctx->cfg.threads;
  config.seed = ctx->cfg.seed;
  config.spans = ctx->tracing;
  const OpenLoopResult burst = RunOpenLoop(config, body_for);
  const knmatch::serve::ServerStats after = server.Stats();

  std::vector<uint64_t> replay(std::min<size_t>(burst.samples.size(), Calls(ctx, 200, 10)));
  for (size_t i = 0; i < replay.size(); ++i) replay[i] = i;
  const Unloaded unloaded = MeasureUnloaded(server.port(), replay, body_for, direct_call);
  server.Stop();

  std::vector<double> late, wait, overhead;
  std::vector<std::string> bodies;
  for (size_t i = 0; i < burst.samples.size(); ++i) {
    const OpenLoopSample& s = burst.samples[i];
    late.push_back(s.late_ms);
    ++ctx->attempted;
    if (s.status != 200) {
      ++ctx->failed;
      continue;
    }
    if (direct.count(i) == 0) direct_call(i);
    const auto& answer = direct[i];
    if (burst.bodies[i] !=
        AnswerBody("knmatch", answer.matches, nullptr, answer.attributes_retrieved)) {
      ++ctx->failed;
      ++ctx->wrong;
    }
  }
  for (size_t i = 0; i < unloaded.requests.size(); ++i) {
    wait.push_back(burst.samples[unloaded.requests[i]].latency_ms - unloaded.rtt_ms[i]);
    overhead.push_back(unloaded.rtt_ms[i] - unloaded.direct_ms[i]);
    bodies.push_back(body_for(unloaded.requests[i]));
  }
  const CodecTimings codecs = TimeCodecs(bodies, [&](size_t i) {
    const auto& a = direct[unloaded.requests[i]];
    return AnswerBody("knmatch", a.matches, nullptr, a.attributes_retrieved);
  });
  Report& r = ctx->report;
  r.Set("serve.http_parse_us", codecs.http_parse_us);
  r.Set("serve.json_parse_us", codecs.json_parse_us);
  r.Set("serve.json_write_us", codecs.json_write_us);
  r.Set("serve.overhead_ms_p50", Median(overhead));
  r.SetTail("serve.wait_ms_p99", wait, 99);
  const double requests = static_cast<double>(after.requests - before.requests);
  r.Set("serve.requests", requests);
  r.Set("serve.deadline_hits", static_cast<double>(after.deadline_hits - before.deadline_hits));
  r.Set("serve.torn_frames", static_cast<double>(after.torn_frames - before.torn_frames));
  r.Set("exec.shed_share",
        requests > 0 ? static_cast<double>(after.shed - before.shed) / requests : 0);
  r.SetTail("harness.late_ms_p99", late, 99);
}

/// A small live session over a slice of the workload's data.
void ProbeStorage(RunContext* ctx, const ProbeData& d) {
  const size_t rows = std::min<size_t>(d.db->size(), 4000);
  knmatch::Dataset slice;
  for (size_t i = 0; i < rows; ++i) {
    slice.Append(d.db->point(static_cast<knmatch::PointId>(i)));
  }
  SimilarityEngine engine{knmatch::Dataset(slice)};
  SimilarityEngine::IngestConfig config;
  config.group_commit_window = 8;
  ++ctx->attempted;
  if (!engine.BeginIngest(config).ok()) {
    ++ctx->failed;
    return;
  }
  // The workload's session shape, with a bounded number of writes made
  // back to back so the probe ends within a few seconds.
  IngestParams params;
  params.writes_per_s = 0;
  params.seconds = 3;
  params.max_writes = Calls(ctx, 80, 10);
  params.seed = ctx->cfg.seed;
  const IngestOutcome outcome = RunIngestSession(ctx, &engine, slice, *d.queries, params);
  SetStorageMetrics(outcome, slice.dims(), &ctx->report);
}

/// Direct ShardRouter::KnMatch calls (S=4, R=1, hash partitioner,
/// hedging off) next to the unsharded engine on the same queries,
/// single-threaded, so the fan-out histogram's sum moves by exactly one
/// dispatch per call.
void ProbeShard(RunContext* ctx, const ProbeData& d, const SimilarityEngine& unsharded) {
  knmatch::shard::RouterOptions options;
  options.shards = 4;
  options.replicas = 1;
  options.partitioner = knmatch::shard::Partitioner::kHash;
  options.hedge_threshold_ms = 0;
  const knmatch::shard::ShardRouter router(*d.db, options);
  const knmatch::shard::RouterStats before = router.Stats();
  knmatch::obs::Histogram* fanout = knmatch::obs::Cat().shard_fanout_seconds;
  std::vector<double> router_ms, fanout_ms, gather_ms, unsharded_ms;
  const Clock::time_point budget_end = Clock::now() + std::chrono::seconds(3);
  for (size_t i = 0; i < Calls(ctx, 1000, 20) && Clock::now() < budget_end; ++i) {
    const std::vector<Value>& q = QueryAt(d, i);
    const uint64_t fan0 = fanout->Snapshot().sum_raw;
    Clock::time_point start = Clock::now();
    auto sharded = [&] {
      ScopedSpan span(ctx->tracing, "ShardRouter::KnMatch", ctx->NextRequest());
      return router.KnMatch(q, kN, kK);
    }();
    router_ms.push_back(Ms(start, Clock::now()));
    fanout_ms.push_back(static_cast<double>(fanout->Snapshot().sum_raw - fan0) * 1e-6);
    gather_ms.push_back(router_ms.back() - fanout_ms.back());
    start = Clock::now();
    auto reference = unsharded.KnMatch(q, kN, kK);
    unsharded_ms.push_back(Ms(start, Clock::now()));
    ctx->attempted += 2;
    if (!sharded.ok() || !reference.ok()) {
      ++ctx->failed;
    } else if (sharded.value().matches != reference.value().matches) {
      ++ctx->failed;
      ++ctx->wrong;
    }
  }
  const knmatch::shard::RouterStats after = router.Stats();
  uint64_t max_points = 0, total_points = 0;
  for (const uint64_t p : after.shard_points) {
    max_points = std::max(max_points, p);
    total_points += p;
  }
  Report& r = ctx->report;
  r.Set("shard.router_ms_p50", Median(router_ms));
  r.SetTail("shard.router_ms_p99", router_ms, 99);
  r.SetTail("shard.fanout_ms_p99", fanout_ms, 99);
  r.Set("shard.gather_ms", Median(gather_ms));
  r.Set("shard.speedup_vs_unsharded", Median(unsharded_ms) / Median(router_ms));
  r.Set("shard.points_imbalance",
        total_points > 0 ? static_cast<double>(max_points) * static_cast<double>(after.shard_points.size()) /
                               static_cast<double>(total_points)
                         : 0);
  r.Set("shard.hedges", static_cast<double>(after.hedges - before.hedges));
  r.Set("shard.failovers", static_cast<double>(after.failovers - before.failovers));
  r.Set("shard.partial_answers",
        static_cast<double>(after.partial_answers - before.partial_answers));
}

}  // namespace

void FillProbes(RunContext* ctx, const ProbeData& d) {
  SimilarityEngine engine{knmatch::Dataset(*d.db)};
  (void)engine.KnMatch(std::vector<Value>(d.db->dims(), 0.5), kN, kK);  // lazy build
  const double sequential_qps = ProbeCore(ctx, d, engine);
  ProbeExec(ctx, d, engine, sequential_qps);
  Report& r = ctx->report;
  ProbeShard(ctx, d, engine);
  ProbeCache(ctx, d, engine);
  ProbeServe(ctx, d, engine);
  if (!r.Has("storage.checkpoint_ms")) ProbeStorage(ctx, d);
}

}  // namespace perfbench
