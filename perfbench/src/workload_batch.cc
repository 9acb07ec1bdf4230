// batch_exact: closed loop, one caller issuing batches on nproc worker
// threads. KnMatchBatch (n=8, k=10) alternates with FrequentKnMatchBatch
// (n in [4, 8], k=10) over held-out queries on texture-like 68,040x16
// data, result cache off. Nearly all the time is the AD kernel and the
// batch pool; the serve, cache, shard and storage layers stay idle.

#include <chrono>
#include <memory>
#include <thread>

#include "heldout.h"
#include "knmatch/datagen/texture_like.h"
#include "knmatch/engine.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using knmatch::SimilarityEngine;
using knmatch::Value;

namespace {

struct Phase {
  std::vector<double> batch_ms;
  std::vector<double> done_s;  // batch completion, seconds since start
  std::vector<double> done_queries;
};

/// Counts one batch's outcomes into the run: a failed call or query is a
/// failure; an answer that differs from its reference is also wrong.
template <typename BatchResultT, typename AnswerT>
void Settle(RunContext* ctx, const knmatch::Result<BatchResultT>& r,
            const std::vector<size_t>& index, const std::vector<AnswerT>& reference) {
  ctx->attempted += index.size();
  for (size_t i = 0; i < index.size(); ++i) {
    if (!r.ok() || !r.value().statuses[i].ok()) {
      ++ctx->failed;
    } else if (!SameAnswer(r.value().results[i], reference[index[i]])) {
      ++ctx->failed;
      ++ctx->wrong;
    }
  }
}

}  // namespace

void RunBatchExact(RunContext* ctx) {
  const RunConfig& cfg = ctx->cfg;
  const knmatch::Dataset db =
      knmatch::datagen::MakeTextureLike(/*seed=*/9, cfg.tiny ? 4000 : 68040);
  const auto queries = MakeHeldOutQueries(db, cfg.tiny ? 64 : 1024, cfg.seed);

  // Set-up: the engine over the generated dataset plus the lazy index
  // build its first query forces, five times.
  std::vector<double> setups(5);
  std::unique_ptr<SimilarityEngine> engine;
  for (double& s : setups) {
    engine.reset();
    knmatch::Dataset copy = db;
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<SimilarityEngine>(std::move(copy));
    ++ctx->attempted;
    if (!engine->KnMatch(queries.front(), kN, kK).ok()) ++ctx->failed;
    s = Ms(t0, Clock::now()) / 1e3;
  }
  ctx->report.Set("setup_s", Median(setups));

  // Reference answers, outside the timed region: per-query calls, on
  // every core at once.
  std::vector<knmatch::KnMatchResult> ref_kn(queries.size());
  std::vector<knmatch::FrequentKnMatchResult> ref_fkn(queries.size());
  {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < cfg.threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < queries.size(); i += cfg.threads) {
          auto kn = engine->KnMatch(queries[i], kN, kK);
          auto fkn = engine->FrequentKnMatch(queries[i], kN0, kN1, kK);
          if (kn.ok()) ref_kn[i] = std::move(kn.value());
          if (fkn.ok()) ref_fkn[i] = std::move(fkn.value());
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  // Eight queries per worker per batch: the pool hands out chunks
  // dynamically, so a worker whose CPU stalls delays a small share of the
  // batch, and a 20-second run still makes several hundred batch calls.
  const size_t batch = 8 * cfg.threads;
  size_t cursor = 0;
  const auto run_phase = [&](double seconds) {
    Phase phase;
    const Clock::time_point begin = Clock::now();
    const Clock::time_point end =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    bool frequent = false;
    while (Clock::now() < end) {
      knmatch::exec::BatchRequest request;
      std::vector<size_t> index;
      for (size_t i = 0; i < batch; ++i, cursor = (cursor + 1) % queries.size()) {
        index.push_back(cursor);
        request.queries.push_back(queries[cursor]);
      }
      request.options.threads = cfg.threads;
      const uint64_t id = ctx->NextRequest();
      const Clock::time_point t0 = Clock::now();
      if (frequent) {
        auto r = [&] {
          ScopedSpan span(ctx->tracing, "SimilarityEngine::FrequentKnMatchBatch", id);
          return engine->FrequentKnMatchBatch(request, kN0, kN1, kK);
        }();
        phase.batch_ms.push_back(Ms(t0, Clock::now()));
        Settle(ctx, r, index, ref_fkn);
      } else {
        auto r = [&] {
          ScopedSpan span(ctx->tracing, "SimilarityEngine::KnMatchBatch", id);
          return engine->KnMatchBatch(request, kN, kK);
        }();
        phase.batch_ms.push_back(Ms(t0, Clock::now()));
        Settle(ctx, r, index, ref_kn);
      }
      phase.done_s.push_back(Ms(begin, Clock::now()) / 1e3);
      phase.done_queries.push_back(static_cast<double>(batch));
      frequent = !frequent;
    }
    return phase;
  };
  // qps is the median completion rate of consecutive chunks of batches,
  // so one slow second of the host does not own the figure.
  const auto report_phase = [&](const Phase& phase) {
    ctx->report.SetRate("qps", ChunkRates(phase.done_s, phase.done_queries, kRateChunks));
    ctx->report.Set("p50_ms", Median(phase.batch_ms));
    ctx->report.SetTail("p95_ms", phase.batch_ms, 95);
    ctx->report.NoteTail("p99 (not gated)", phase.batch_ms, 99, "ms");
  };

  if (!cfg.trace) {
    report_phase(run_phase(cfg.seconds));
    return;
  }
  const size_t start = cursor;
  const Phase untraced = run_phase(cfg.seconds / 2);
  cursor = start;  // the traced half replays the same batches
  ctx->tracing = &ctx->spans;
  const Phase traced = run_phase(cfg.seconds / 2);
  report_phase(traced);
  ctx->report.Set("harness.trace_overhead_pct",
                  OverheadPct(Median(untraced.batch_ms), Median(traced.batch_ms)));
  engine.reset();
  FillProbes(ctx, ProbeData{&db, &queries});
  ctx->tracing = nullptr;
}

}  // namespace perfbench
