// ingest_mixed: the only workload that writes. One writer runs
// IngestPoint:ErasePoint at 4:1, paced at 6 writes/s, with group commit
// window 8 and a Checkpoint() every 25 writes, beside two LiveKnMatch
// readers, over a live session on uniform 25,000x16 data. p50_ms is the
// write-call latency; qps and p95_ms are the readers'.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "heldout.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "metrics_diff.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using knmatch::PointId;
using knmatch::SimilarityEngine;
using knmatch::Value;

namespace {

constexpr size_t kCheckpointEvery = 25;
constexpr size_t kReaders = 2;

}  // namespace

IngestOutcome RunIngestSession(RunContext* ctx, SimilarityEngine* engine,
                               const knmatch::Dataset& base,
                               const std::vector<std::vector<Value>>& queries,
                               const IngestParams& params) {
  IngestOutcome out;
  SpanLog* spans = ctx->tracing;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> checkpoints;
  std::vector<PointId> live(base.size());
  std::iota(live.begin(), live.end(), PointId{0});
  std::map<PointId, std::vector<Value>> inserted;
  const MetricMap before = ScrapeProcess();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(params.seconds));

  std::thread writer([&] {
    knmatch::Rng rng(params.seed ^ 0x5bd1e995u);
    for (size_t w = 0; w < params.max_writes && Clock::now() < deadline; ++w) {
      if (params.writes_per_s > 0) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(w / params.writes_per_s)));
        if (Clock::now() >= deadline) break;
      }
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      if (w % 5 == 4 && !live.empty()) {
        const size_t slot = static_cast<size_t>(rng.UniformInt(live.size()));
        const PointId pid = live[slot];
        live[slot] = live.back();
        live.pop_back();
        ScopedSpan span(spans, "SimilarityEngine::ErasePoint", ctx->NextRequest());
        auto erased = engine->ErasePoint(pid);
        ok = erased.ok() && erased.value();
      } else {
        // New points follow the data: a held-out draw is a dataset point
        // with two coordinates replaced.
        std::vector<Value> coords = MakeHeldOutQuery(base, rng);
        ScopedSpan span(spans, "SimilarityEngine::IngestPoint", ctx->NextRequest());
        auto pid = engine->IngestPoint(coords);
        if (pid.ok()) {
          live.push_back(pid.value());
          inserted.emplace(pid.value(), std::move(coords));
          ok = true;
        }
      }
      out.write_ms.push_back(Ms(t0, Clock::now()));
      if (ok) {
        ++out.writes_ok;
      } else {
        failed.fetch_add(1);
      }
      if ((w + 1) % kCheckpointEvery == 0) {
        const Clock::time_point c0 = Clock::now();
        {
          ScopedSpan span(spans, "SimilarityEngine::Checkpoint", ctx->NextRequest());
          if (!engine->Checkpoint().ok()) failed.fetch_add(1);
        }
        checkpoints.emplace_back(c0, Clock::now());
        out.checkpoint_ms.push_back(Ms(c0, checkpoints.back().second));
      }
    }
    out.writer_seconds = Ms(start, Clock::now()) / 1e3;
    stop.store(true);
  });

  struct Read {
    Clock::time_point start, end;
  };
  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t j = r; !stop.load(); j += kReaders) {
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        {
          ScopedSpan span(spans, "SimilarityEngine::LiveKnMatch", ctx->NextRequest());
          ok = engine->LiveKnMatch(queries[j % queries.size()], kN, kK).ok();
        }
        if (ok) {
          reads[r].push_back(Read{t0, Clock::now()});
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  for (const auto& per_reader : reads) {
    for (const Read& rd : per_reader) {
      const double ms = Ms(rd.start, rd.end);
      out.read_ms.push_back(ms);
      out.read_done_s.push_back(Ms(start, rd.end) / 1e3);
      for (const auto& [c0, c1] : checkpoints) {
        if (rd.start < c1 && c0 < rd.end) {
          out.read_during_checkpoint_ms.push_back(ms);
          break;
        }
      }
    }
  }
  std::sort(out.read_done_s.begin(), out.read_done_s.end());
  ctx->attempted += out.write_ms.size() + out.checkpoint_ms.size() + out.read_ms.size() +
                    failed.load();
  ctx->failed += failed.load();
  ++ctx->attempted;
  if (!engine->FlushIngest().ok()) ++ctx->failed;
  const MetricMap after = ScrapeProcess();
  out.wal_bytes = Delta(before, after, "knmatch_wal_bytes_total");
  out.fsyncs = Delta(before, after, "knmatch_wal_fsyncs_total");
  out.pages_flushed = Delta(before, after, "knmatch_ingest_pages_flushed_total");

  // Quiesced check: the live answers equal a fresh engine's over the
  // live points (fresh ids are ranks in ascending live-id order, which
  // keeps ties in the same order).
  std::sort(live.begin(), live.end());
  knmatch::Dataset fresh_db;
  for (const PointId pid : live) {
    if (pid < base.size()) {
      fresh_db.Append(base.point(pid));
    } else {
      fresh_db.Append(inserted.at(pid));
    }
  }
  const size_t verify = std::min<size_t>(ctx->cfg.tiny ? 8 : 128, queries.size());
  std::vector<knmatch::KnMatchResult> served(verify);
  const MetricMap visits0 = ScrapeProcess();
  for (size_t i = 0; i < verify; ++i) {
    auto r = engine->LiveKnMatch(queries[i], kN, kK);
    if (r.ok()) served[i] = std::move(r.value());
  }
  const MetricMap visits1 = ScrapeProcess();
  out.btree_visits_per_query =
      verify > 0 ? DeltaPrefix(visits0, visits1, "knmatch_btree_node_visits_total") /
                       static_cast<double>(verify)
                 : 0;
  SimilarityEngine fresh(std::move(fresh_db));
  for (size_t i = 0; i < verify; ++i) {
    auto expected = fresh.KnMatch(queries[i], kN, kK);
    ++ctx->attempted;
    bool same = expected.ok() && expected.value().matches.size() == served[i].matches.size();
    for (size_t m = 0; same && m < served[i].matches.size(); ++m) {
      const knmatch::Neighbor& e = expected.value().matches[m];
      same = live[e.pid] == served[i].matches[m].pid &&
             e.distance == served[i].matches[m].distance;
    }
    if (!same) {
      ++ctx->failed;
      ++ctx->wrong;
    }
  }
  return out;
}

void SetStorageMetrics(const IngestOutcome& out, size_t dims, Report* r) {
  const double writes = static_cast<double>(out.writes_ok);
  r->Set("storage.wal_bytes_per_user_byte",
         writes > 0 ? out.wal_bytes / (writes * static_cast<double>(dims) * 8) : 0);
  r->Set("storage.fsyncs_per_write", writes > 0 ? out.fsyncs / writes : 0);
  r->Set("storage.checkpoint_ms", Median(out.checkpoint_ms));
  r->Set("storage.pages_flushed_per_checkpoint",
         out.checkpoint_ms.empty() ? 0
                                   : out.pages_flushed / static_cast<double>(out.checkpoint_ms.size()));
  r->Set("storage.btree_visits_per_query", out.btree_visits_per_query);
  r->SetTail("storage.read_p99_during_checkpoint_ms", out.read_during_checkpoint_ms, 99);
  r->Set("storage.ingest_ops_s", out.writer_seconds > 0 ? writes / out.writer_seconds : 0);
  r->Set("storage.ingest_p50_ms", Median(out.write_ms));
  r->SetTail("storage.ingest_p95_ms", out.write_ms, 95);
  r->Set("core.snapshot_query_ms", Median(out.read_ms));
}

void RunIngestMixed(RunContext* ctx) {
  const RunConfig& cfg = ctx->cfg;
  const knmatch::Dataset db =
      knmatch::datagen::MakeUniform(cfg.tiny ? 2000 : 25000, 16, /*seed=*/25);
  const auto queries = MakeHeldOutQueries(db, cfg.tiny ? 32 : 512, cfg.seed);
  SimilarityEngine::IngestConfig ingest;
  ingest.group_commit_window = 8;

  // Set-up: engine, BeginIngest() and the first live query, five times.
  const auto open_session = [&](double* seconds) {
    knmatch::Dataset copy = db;
    const Clock::time_point t0 = Clock::now();
    auto engine = std::make_unique<SimilarityEngine>(std::move(copy));
    ++ctx->attempted;
    if (!engine->BeginIngest(ingest).ok() ||
        !engine->LiveKnMatch(queries.front(), kN, kK).ok()) {
      ++ctx->failed;
    }
    *seconds = Ms(t0, Clock::now()) / 1e3;
    return engine;
  };
  std::vector<double> setups(5);
  std::unique_ptr<SimilarityEngine> engine;
  for (double& s : setups) {
    engine.reset();
    engine = open_session(&s);
  }
  ctx->report.Set("setup_s", Median(setups));

  // The writer is paced (IngestParams' default), so the live state
  // evolves the same way in every run: reader throughput falls as writes
  // accumulate, and a writer that ran faster in one run would otherwise
  // move the readers' figures.
  IngestParams params;
  params.seed = cfg.seed;
  // qps and p95_ms are the readers'; p50_ms is the writer's, so a change
  // that trades one side for the other shows. qps is the median
  // completion rate of consecutive chunks of reads, so one slow second
  // of the host does not own the figure.
  const auto report_run = [&](const IngestOutcome& out) {
    ctx->report.SetRate("qps", ChunkRates(out.read_done_s, {}, kRateChunks));
    ctx->report.Set("p50_ms", Median(out.write_ms));
    ctx->report.SetTail("p95_ms", out.read_ms, 95);
    ctx->report.NoteTail("read p50 (not gated)", out.read_ms, 50, "ms");
    ctx->report.NoteTail("read p99 (not gated)", out.read_ms, 99, "ms");
  };
  if (!cfg.trace) {
    params.seconds = cfg.seconds;
    report_run(RunIngestSession(ctx, engine.get(), db, queries, params));
    return;
  }
  // Traced run: the same session untraced, then replayed traced on a
  // fresh session, then the layer probes.
  params.seconds = cfg.seconds / 2;
  const IngestOutcome untraced = RunIngestSession(ctx, engine.get(), db, queries, params);
  double unused = 0;
  engine.reset();
  engine = open_session(&unused);
  ctx->tracing = &ctx->spans;
  const IngestOutcome traced = RunIngestSession(ctx, engine.get(), db, queries, params);
  report_run(traced);
  SetStorageMetrics(traced, db.dims(), &ctx->report);
  ctx->report.Set("harness.trace_overhead_pct",
                  OverheadPct(Median(untraced.read_ms), Median(traced.read_ms)));
  engine.reset();
  FillProbes(ctx, ProbeData{&db, &queries});
  ctx->tracing = nullptr;
}

}  // namespace perfbench
