#ifndef KNMATCH_CORE_AD_ENGINE_H_
#define KNMATCH_CORE_AD_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/ad_kernel.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch::internal {

/// Detected on accessors that can fail (disk-backed ones): a non-OK
/// status() after any ReadEntry/LocateLowerBound marks every value the
/// accessor returned since as garbage, and the engine stops stepping.
/// In-memory accessors omit status() and pay nothing for the checks.
template <typename A>
concept StatusReportingAccessor = KernelStatusReportingAccessor<A>;

/// Output of one AD search: the k-n-match answer sets for every n in
/// [n0, n1] (each capped at k entries, in ascending order of n-match
/// difference — the order in which points completed n appearances), and
/// the number of individual attributes retrieved.
struct AdOutput {
  std::vector<std::vector<Neighbor>> per_n_sets;
  uint64_t attributes_retrieved = 0;
  /// Attributes consumed in ascending difference order (one per
  /// delivered pop; the name predates the loser-tree kernel).
  uint64_t heap_pops = 0;
  /// Runs — stretches of consecutive pops from one direction cursor
  /// (AdKernel::tree_replays); block kernel only, 0 for the band path
  /// and for RunAdSearchReference.
  uint64_t tree_replays = 0;
  /// Recall accounting; the all-exact default unless the run was
  /// driven under a non-exact ApproxPolicy.
  RecallBound bound;
};

/// The REFERENCE stepping engine of the AD (Ascending Difference)
/// algorithm: the paper's g[] cursor array (Figures 4/6) as a flat
/// binary min-heap over (difference, slot), advanced one pop-plus-push
/// at a time. The production hot path is AdKernel (core/ad_kernel.h),
/// which must pop in exactly this engine's order; this implementation
/// is kept deliberately simple and is what the differential tests and
/// the naive-comparison property tests trust.
///
/// `Accessor` must provide:
///   size_t dims() const;                 // dimensionality d
///   size_t column_size() const;          // cardinality c
///   // idx-th smallest entry of `dim`; `slot` identifies the reading
///   // cursor (2*dim for the downward direction, 2*dim+1 for upward)
///   // so disk accessors can charge the right I/O stream.
///   ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot);
///   size_t LocateLowerBound(size_t dim, Value v);   // first idx >= v
///
/// An accessor may additionally provide
///   size_t column_length(size_t dim) const;
/// when its columns are ragged — shorter than the cardinality because
/// some points lack a value in some dimension (missing attributes,
/// heterogeneous sources). Without it every column is assumed to hold
/// exactly `column_size()` entries. Accessors whose pid space is
/// sparse (ids are not 0..c-1, e.g. live-ingest snapshots after
/// erases) may provide
///   size_t pid_bound() const;   // exclusive upper bound on any pid
/// so the per-point appearance table is sized for the id range rather
/// than the cardinality; without it the two are assumed equal.
///
/// `ReadEntry` calls are the retrieved attributes (the paper's cost
/// metric); the engine counts them. Locating the query's position
/// (binary search / index traversal) is charged by the accessor, not
/// counted as an attribute retrieval, matching the paper's model where
/// each sorted system supports positioned sorted access.
///
/// The heap and the per-point appearance counters live in an AdScratch
/// arena: pass one in to reuse its allocations (and O(1)-reset visit
/// table) across queries on the same thread, or pass none and the
/// engine owns a private arena.
///
/// Optional positive per-dimension weights scale each difference before
/// it enters the heap; scaling by a per-dimension constant preserves
/// each cursor's ascending order, so correctness is unaffected.
template <typename Accessor>
class AdEngine {
 public:
  /// One popped attribute: the point it belongs to, its (weighted)
  /// difference to the query in the popped dimension, and how many
  /// times the point has now been seen.
  struct Pop {
    PointId pid;
    Value dif;
    uint16_t appearances;
  };

  AdEngine(Accessor& accessor, std::span<const Value> query,
           std::span<const Value> weights = {}, AdScratch* scratch = nullptr)
      : acc_(accessor),
        query_(query),
        weights_(weights),
        c_(accessor.column_size()),
        scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
    const size_t d = acc_.dims();
    assert(query.size() == d);
    assert(weights.empty() || weights.size() == d);
    // Accessors over sparse pid spaces (live-ingest snapshots) expose a
    // pid_bound() above the cardinality; size the appearance table for
    // it up front so BumpAppearances never grows mid-search.
    size_t table = c_;
    if constexpr (requires { acc_.pid_bound(); }) {
      table = std::max<size_t>(table, acc_.pid_bound());
    }
    scratch_->Prepare(table, d);
    g_ = &scratch_->heap();
    next_idx_ = scratch_->next_idx();
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t len = ColumnLength(dim);
      size_t pos = acc_.LocateLowerBound(dim, query_[dim]);
      if (AccessorFailed()) return;
      if (pos > len) pos = len;
      const auto down = static_cast<uint32_t>(2 * dim);
      const uint32_t up = down + 1;
      next_idx_[down] = pos == 0 ? kExhausted : pos - 1;
      next_idx_[up] = pos == len ? kExhausted : pos;
      ReadAndPush(down);
      ReadAndPush(up);
      if (AccessorFailed()) return;
    }
  }

  /// Pops the next attribute in ascending difference order; nullopt
  /// once every attribute of every column has been consumed — or once
  /// the accessor reports a failure (check its status()).
  std::optional<Pop> Step() {
    if (AccessorFailed()) return std::nullopt;
    if (g_->empty()) return std::nullopt;
    const AdHeapItem item = g_->top();
    g_->Pop();
    const PointId pid = item.entry.pid;
    const uint16_t a = scratch_->BumpAppearances(pid);
    ReadAndPush(item.slot);
    if (AccessorFailed()) return std::nullopt;
    return Pop{pid, item.dif, a};
  }

  /// Attributes retrieved so far (including cursor read-ahead).
  uint64_t attributes_retrieved() const { return attributes_retrieved_; }

 private:
  static constexpr size_t kExhausted = static_cast<size_t>(-1);

  size_t ColumnLength(size_t dim) const {
    if constexpr (requires(const Accessor& a, size_t i) {
                    { a.column_length(i) } -> std::convertible_to<size_t>;
                  }) {
      return acc_.column_length(dim);
    } else {
      (void)dim;
      return c_;
    }
  }

  bool AccessorFailed() const {
    if constexpr (StatusReportingAccessor<Accessor>) {
      return !acc_.status().ok();
    } else {
      return false;
    }
  }

  void ReadAndPush(uint32_t slot) {
    const size_t idx = next_idx_[slot];
    if (idx == kExhausted) return;
    const size_t dim = slot / 2;
    const ColumnEntry e = acc_.ReadEntry(dim, idx, slot);
    if (AccessorFailed()) return;  // e is garbage; stop consuming
    ++attributes_retrieved_;
    Value dif =
        slot % 2 == 0 ? query_[dim] - e.value : e.value - query_[dim];
    if (!weights_.empty()) dif *= weights_[dim];
    g_->Push(AdHeapItem{dif, slot, e});
    if (slot % 2 == 0) {
      next_idx_[slot] = idx == 0 ? kExhausted : idx - 1;
    } else {
      next_idx_[slot] = idx + 1 == ColumnLength(dim) ? kExhausted : idx + 1;
    }
  }

  Accessor& acc_;
  std::span<const Value> query_;
  std::span<const Value> weights_;
  size_t c_;
  uint64_t attributes_retrieved_ = 0;
  AdScratch owned_scratch_;  // used when the caller supplies no arena
  AdScratch* scratch_;
  AdCursorHeap* g_ = nullptr;
  size_t* next_idx_ = nullptr;
};

/// Shared answer-set bookkeeping for the AD drivers: routes one pop
/// into the per-n sets and reports whether the search must continue.
/// It is itself a sink for AdKernel::Drive, and a QuietBandSink: only a
/// pop that brings a point to a level whose set is not yet full can
/// change the sets.
class AdAnswerBuilder {
 public:
  AdAnswerBuilder(AdOutput* out, size_t n0, size_t n1, size_t k)
      : out_(out),
        n0_(n0),
        n1_(n1),
        k_(k),
        terminal_left_(k),
        open_(static_cast<uint32_t>(n0)) {}

  // The pop counter and the terminal set's remaining capacity live in
  // members rather than behind out_: Consume runs once per pop and the
  // escaped AdOutput pointer would force a store + vector-size reload
  // on every call. The caller must Flush once, after the drive loop.
  void Flush() { out_->heap_pops += pops_; }

  /// Pops consumed so far (read at governance stride boundaries; the
  /// caller still owes a Flush).
  uint64_t pops() const { return pops_; }

  /// Accounts one pop; false once the terminal set is complete.
  /// Forced inline: it runs once per heap pop inside every ascend
  /// sink, and the governed A/B lane (bench_governance_overhead) is
  /// sensitive to whether the sinks get the call folded.
  [[gnu::always_inline]] inline bool Consume(PointId pid, Value dif,
                                             uint16_t appearances) {
    ++pops_;
    if (appearances >= n0_ && appearances <= n1_) {
      auto& set = out_->per_n_sets[appearances - n0_];
      // Definition 4 counts appearances in the *k*-n-match answer
      // sets, so each per-n set is capped at the first k completions.
      if (set.size() < k_) {
        set.push_back(Neighbor{pid, dif});
        // Only n1-appearance completions fill the terminal set.
        if (appearances == n1_) --terminal_left_;
      }
    }
    return terminal_left_ != 0;
  }

  /// The sink call of AdKernel::Drive.
  [[gnu::always_inline]] inline bool operator()(PointId pid, Value dif,
                                                uint16_t appearances) {
    return Consume(pid, dif, appearances);
  }

  /// The lowest level whose set still holds fewer than k points. A
  /// point reaches level n before n + 1, so the set sizes never rise
  /// with n: the full levels are [n0, open_level()) and the open ones
  /// [open_level(), top_level()]. Called once per band.
  uint32_t open_level() {
    while (open_ < n1_ && out_->per_n_sets[open_ - n0_].size() >= k_) {
      ++open_;
    }
    return open_;
  }
  /// The terminal level n1.
  uint32_t top_level() const { return static_cast<uint32_t>(n1_); }
  /// Accounts `n` pops that touched no open level (a quiet band).
  void SkipPops(uint64_t n) { pops_ += n; }

 private:
  AdOutput* out_;
  size_t n0_, n1_, k_;
  size_t terminal_left_;
  uint64_t pops_ = 0;
  uint32_t open_;
};

/// Each ascend variant lives out-of-line in its own function: the
/// approximate mode's arming and bound-assembly code grew RunAdSearch
/// enough that keeping the pop loops inline in it cost the governed
/// loop ~4 cycles/pop (bench_governance_overhead); a dedicated function
/// per sink restores each loop's own inlining budget.
/// `Answers` is AdAnswerBuilder in production; tests pass a wrapper that
/// tallies how the pops arrived.
template <typename Accessor, typename Answers>
[[gnu::noinline, gnu::aligned(64)]] void DriveExactAscend(AdKernel<Accessor>& kernel,
                                        Answers& answers) {
  kernel.Drive(answers);
}

template <typename Accessor, typename Answers>
[[gnu::noinline, gnu::aligned(64)]] void DriveGovernedAscend(AdKernel<Accessor>& kernel,
                                           Answers& answers,
                                           QueryContext* ctx) {
  // A recheck is due every kGovernanceStride pops: cancellation and
  // the budgets each time, the deadline clock every kDeadlineStrides
  // strides on the band path. Its pops cost ~10-20 ns, and a clock read
  // every stride cost the governed lane its <2% A/B budget
  // (bench_governance_overhead); the block path, whose pops cost far
  // more, reads the clock every stride. A quiet band that passes
  // several strides is rechecked once, at its end, and counts them all.
  constexpr uint64_t kClockStrides =
      AdKernel<Accessor>::kBandPath ? kDeadlineStrides : 1;
  uint64_t strides = 0;
  kernel.Drive(
      answers, kGovernanceStride,
      [&](uint64_t passed) {
        const uint64_t attributes = kernel.attributes_retrieved();
        strides += passed;
        if (strides < kClockStrides) {
          return ctx->RecheckBudgets(attributes, answers.pops());
        }
        strides %= kClockStrides;
        return ctx->Recheck(attributes, answers.pops());
      },
      // A quiet band skips the rechecks inside it: only when none of
      // them could trip on the budgets or a cancellation already set.
      // Memory columns read no pages, and the attribute count only
      // grows, so the band-end count decides.
      [ctx](uint64_t attributes) { return ctx->BudgetsHold(attributes); });
}

template <typename Accessor>
[[gnu::noinline, gnu::aligned(64)]] void DriveApproxAscend(
    AdKernel<Accessor>& kernel, AdAnswerBuilder& answers, QueryContext* ctx,
    bool governed, Value stop_mult, size_t n1, size_t k,
    Value& stop_threshold, Value& stop_dif, bool& early_stopped,
    std::vector<PointId>& ondeck, std::vector<PointId>& reserve) {
  if (n1 > 1) {
    ondeck.reserve(k);
    reserve.reserve(k);
  }
  uint32_t countdown = kGovernanceStride;
  kernel.Drive([&](PointId pid, Value dif, uint16_t a) {
    if (dif > stop_threshold) {
      if (stop_threshold == 0) {
        // A zero-difference completion (the query coincides with a
        // dataset point) makes (1+eps) * 0 a degenerate threshold
        // that would stop at the very first runner-up pop. Re-arm
        // once from the first positive frontier difference so the
        // band has a positive base and eps keeps meaning: larger
        // eps searches measurably further before stopping.
        stop_threshold = stop_mult * dif;
      } else {
        early_stopped = true;
        stop_dif = dif;
        return false;
      }
    }
    if (!answers.Consume(pid, dif, a)) return false;
    if (static_cast<size_t>(a) == n1) {
      // This pop just completed the worst (latest) terminal so far —
      // completions arrive in ascending difference order, so dif is
      // the current k-th-best candidate the (1+eps) stop rule scales.
      stop_threshold = stop_mult * dif;
    } else if (static_cast<size_t>(a) + 1 == n1 && ondeck.size() < k) {
      ondeck.push_back(pid);
    }
    if (a == 1 && reserve.size() < k) reserve.push_back(pid);
    if (governed && --countdown == 0) {
      countdown = kGovernanceStride;
      return ctx->Recheck(kernel.attributes_retrieved(), answers.pops());
    }
    return true;
  });
}

/// Batch driver: algorithms KNMatchAD (n0 == n1) and FKNMatchAD of the
/// paper, on top of AdKernel (band ascend over memory and B+-tree
/// columns, block kernel over paged sorted runs). Runs until the
/// k-n1-match answer set is complete; by then every k-n-match set for n
/// in [n0, n1] is complete as well (Sec. 3.2).
///
/// If the columns exhaust before k points complete n1 appearances —
/// possible only with ragged column sources, where some points lack a
/// value in some dimensions — the partial answer sets accumulated so
/// far are returned: they are exactly the matches supported by the
/// attributes that exist.
///
/// A governed run (`ctx` non-null with any limit armed) rechecks the
/// context once per kGovernanceStride pops — the ungoverned path keeps
/// the exact sink it always had, so governance costs it nothing. On a
/// trip the ascend stops, the best-so-far answer sets move into the
/// context's GovernanceTrip, and the returned AdOutput's sets are
/// empty; callers surface ctx->trip_status(). Tripped or not, a
/// governed run leaves its final pops and attributes in ctx->trip().
///
/// `approx.epsilon > 0` arms the bounded-recall early stop: once at
/// least one point has completed n1 appearances, the ascend stops at
/// the first pop whose difference exceeds (1+epsilon) times the worst
/// completed terminal difference. Everything delivered before the stop
/// is an exact prefix of the exact answer (completions arrive in final
/// order), so the emitted RecallBound's m/k guarantee is sound; the
/// terminal set is then padded with optimistic fills (points one
/// appearance short, distance = the stop difference, a certified lower
/// bound). An exact policy leaves every code path bit-identical to the
/// pre-approximation engine. Column sampling does not live here — see
/// core/ad_approx.h for the sampled-columns variant.
template <typename Accessor>
AdOutput RunAdSearch(Accessor& acc, std::span<const Value> query, size_t n0,
                     size_t n1, size_t k,
                     std::span<const Value> weights = {},
                     AdScratch* scratch = nullptr,
                     QueryContext* ctx = nullptr,
                     const ApproxPolicy& approx = {}) {
  assert(n0 >= 1 && n0 <= n1 && n1 <= acc.dims());
  assert(k >= 1 && k <= acc.column_size());

  AdOutput out;
  const bool governed = ctx != nullptr && ctx->governed();
  size_t table_points = acc.column_size();
  if constexpr (requires { acc.pid_bound(); }) {
    table_points = std::max<size_t>(table_points, acc.pid_bound());
  }
  if (governed && !ctx->AdmitScratch(AdScratch::EstimateFootprintBytes(
                      table_points, acc.dims()))) {
    out.per_n_sets.resize(n1 - n0 + 1);
    return out;  // refused at admission; ctx latched the trip status
  }
  out.per_n_sets.resize(n1 - n0 + 1);
  for (auto& set : out.per_n_sets) set.reserve(k);
  if (scratch == nullptr) {
    // Callers without an arena (the sequential engine entry points) get
    // a per-thread one: a fresh scratch per query would re-fault an
    // O(cardinality) appearance table every time, which costs more than
    // a small per-n query's entire ascend. Thread-local keeps the const
    // query methods safely concurrent; the retained footprint is one
    // table sized to the largest dataset the thread has queried.
    static thread_local AdScratch tls_scratch;
    scratch = &tls_scratch;
  }
  std::optional<AdKernel<Accessor>> kernel;
  {
    obs::TraceSpan span(obs::Phase::kLocate);
    kernel.emplace(acc, query, weights, scratch);
  }

  const bool approx_stop = approx.epsilon > 0;
  const Value stop_mult = 1.0 + approx.epsilon;
  Value stop_threshold = kInfValue;  // armed at the first completion
  Value stop_dif = kInfValue;
  bool early_stopped = false;
  /// Points one appearance short of completing, in pop order — the
  /// optimistic fill pool for an early-stopped terminal set.
  std::vector<PointId> ondeck;
  /// Fallback fill pool: the first k distinct points popped, in first-
  /// appearance order. A very early stop (the threshold arms at 0 when
  /// the query is a dataset point) can fire before anything reaches
  /// n1-1 appearances; these earliest-seen points — the ones with the
  /// smallest single-dimension differences — keep the answer full-size.
  std::vector<PointId> reserve;

  {
    obs::TraceSpan span(obs::Phase::kAscend);
    AdAnswerBuilder answers(&out, n0, n1, k);
    if (approx_stop) {
      // The approximate sink folds the governance stride in (approx
      // mode is off the exact lanes' drift gate, so the combined sink
      // does not need the exact path's two-variant split). Out-of-line
      // so the exact sinks below keep their layout.
      DriveApproxAscend(*kernel, answers, ctx, governed, stop_mult, n1, k,
                        stop_threshold, stop_dif, early_stopped, ondeck,
                        reserve);
    } else if (governed) {
      DriveGovernedAscend(*kernel, answers, ctx);
    } else {
      DriveExactAscend(*kernel, answers);
    }
    answers.Flush();
  }
  out.attributes_retrieved = kernel->attributes_retrieved();
  out.tree_replays = kernel->tree_replays();
  if (governed) {
    // Final progress totals. The last recheck's snapshot depends on
    // where the drive rechecked (a quiet band rechecks at its end), the
    // totals do not.
    ctx->trip().pops = out.heap_pops;
    ctx->trip().attributes_retrieved = out.attributes_retrieved;
  }
  if (governed && ctx->tripped()) {
    // Unwind cleanly with the partial result: the best-so-far sets
    // (exact prefixes of the untripped answer). The returned output
    // keeps its shape but goes empty — the caller returns the trip
    // status, not a value.
    ctx->StorePartialSets(&out.per_n_sets);
    out.per_n_sets.assign(n1 - n0 + 1, {});
  } else if (approx_stop) {
    RecallBound& bound = out.bound;
    bound.epsilon = approx.epsilon;
    if (early_stopped) {
      bound.early_stopped = true;
      bound.settled_below = stop_dif;
      const size_t levels = n1 - n0 + 1;
      bound.level_exact.resize(levels);
      size_t sum = 0;
      for (size_t i = 0; i < levels; ++i) {
        bound.level_exact[i] =
            static_cast<uint32_t>(out.per_n_sets[i].size());
        sum += out.per_n_sets[i].size();
      }
      auto& terminal = out.per_n_sets[levels - 1];
      bound.exact_prefix = static_cast<uint32_t>(terminal.size());
      // Every level's set is the exact prefix of its exact answer, so
      // the certainly-present fraction averages the per-level prefixes.
      bound.guaranteed =
          static_cast<double>(sum) / static_cast<double>(levels * k);
      // Optimistic fills for the terminal set: the points closest to
      // completing, in pop order. Their true terminal difference is
      // >= stop_dif (every unconsumed attribute is), so the recorded
      // distance is a certified lower bound — fills can only raise
      // measured recall above the reported guarantee, never lower it.
      for (PointId pid : ondeck) {
        if (terminal.size() >= k) break;
        if (static_cast<size_t>(scratch->Appearances(pid)) >= n1) {
          continue;  // completed before the stop; already in the set
        }
        terminal.push_back(Neighbor{pid, stop_dif});
      }
      // Second fill pool: the earliest-seen points, for stops that
      // fire before anything reaches n1-1 appearances. Same soundness
      // argument (an uncompleted point's true terminal difference is
      // >= stop_dif); skip points the ondeck loop already placed.
      for (PointId pid : reserve) {
        if (terminal.size() >= k) break;
        if (static_cast<size_t>(scratch->Appearances(pid)) >= n1) continue;
        bool placed = false;
        for (const Neighbor& nb : terminal) {
          if (nb.pid == pid) {
            placed = true;
            break;
          }
        }
        if (!placed) terminal.push_back(Neighbor{pid, stop_dif});
      }
    }
  }
  if constexpr (!AdKernel<Accessor>::kBandPath) {
    if (obs::Enabled()) {
      obs::Cat().ad_tree_replays->Add(out.tree_replays);
      obs::Cat().ad_run_length->MergeBuckets(kernel->run_length_buckets(),
                                             kernel->run_entries());
    }
  }
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += out.attributes_retrieved;
    trace->counters().heap_pops += out.heap_pops;
    if (approx_stop) {
      trace->counters().recall_bound_pct =
          static_cast<uint64_t>(out.bound.guaranteed * 100.0);
      if (out.bound.early_stopped) ++trace->counters().approx_early_stops;
    }
  }
  return out;
}

/// The same driver on the reference heap engine, pop by pop. Exists so
/// differential tests can hold the kernel to the reference's answers
/// (and so a suspected kernel bug can be cross-checked quickly);
/// production entry points all use RunAdSearch.
template <typename Accessor>
AdOutput RunAdSearchReference(Accessor& acc, std::span<const Value> query,
                              size_t n0, size_t n1, size_t k,
                              std::span<const Value> weights = {},
                              AdScratch* scratch = nullptr) {
  assert(n0 >= 1 && n0 <= n1 && n1 <= acc.dims());
  assert(k >= 1 && k <= acc.column_size());

  AdOutput out;
  out.per_n_sets.resize(n1 - n0 + 1);
  for (auto& set : out.per_n_sets) set.reserve(k);
  AdEngine<Accessor> engine(acc, query, weights, scratch);
  AdAnswerBuilder answers(&out, n0, n1, k);
  for (;;) {
    std::optional<typename AdEngine<Accessor>::Pop> pop = engine.Step();
    if (!pop.has_value()) break;  // exhausted: return the partial sets
    if (!answers.Consume(pop->pid, pop->dif, pop->appearances)) break;
  }
  answers.Flush();
  out.attributes_retrieved = engine.attributes_retrieved();
  return out;
}

/// Accessor over in-memory SortedColumns (SoA: parallel values/pids
/// arrays per dimension). The kernel walks the spans in place on its
/// band path; ReadEntry serves the reference engine.
class MemoryColumnAccessor {
 public:
  explicit MemoryColumnAccessor(const SortedColumns& columns)
      : columns_(columns) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.size(); }
  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t /*slot*/) const {
    return columns_.entry(dim, idx);
  }
  /// Direct column access (DirectColumnAccessor).
  std::span<const Value> values(size_t dim) const {
    return columns_.values(dim);
  }
  std::span<const PointId> pids(size_t dim) const {
    return columns_.pids(dim);
  }
  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

 private:
  const SortedColumns& columns_;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_ENGINE_H_
