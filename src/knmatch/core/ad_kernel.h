#ifndef KNMATCH_CORE_AD_KERNEL_H_
#define KNMATCH_CORE_AD_KERNEL_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/ad_scratch.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch::internal {

/// Detected on accessors that can fail (disk-backed ones): a non-OK
/// status() after any read marks every value the accessor returned
/// since as garbage, and the kernel stops stepping. In-memory accessors
/// omit status() and pay nothing for the checks.
template <typename A>
concept KernelStatusReportingAccessor = requires(const A& a) {
  { a.status() } -> std::convertible_to<const Status&>;
};

/// Detected on accessors that can serve a cursor a block of consecutive
/// entries in one call (see AdKernel's accessor contract below).
/// Accessors without ReadRun fall back to per-entry ReadEntry calls —
/// the kernel's stepping order is identical either way.
template <typename A>
concept RunReadingAccessor =
    requires(A a, size_t dim, size_t idx, size_t len, uint32_t slot,
             Value* values, PointId* pids) {
      { a.ReadRun(dim, idx, len, slot, values, pids) }
          -> std::convertible_to<size_t>;
    };

/// Detected on accessors whose columns are directly addressable memory
/// (SoA spans). The kernel then runs the band-synchronous ascend over
/// the columns in place (see AdKernel). Takes precedence over
/// RunReadingAccessor.
template <typename A>
concept DirectColumnAccessor =
    requires(const A& a, size_t dim) {
      { a.values(dim) } -> std::convertible_to<std::span<const Value>>;
      { a.pids(dim) } -> std::convertible_to<std::span<const PointId>>;
    };

/// Detected on accessors over B+-tree columns that hand out their leaves
/// (see AdKernel's accessor contract). The kernel then runs the
/// band-synchronous ascend with each cursor walking its current leaf in
/// place, and charges every leaf visit at delivery.
template <typename A>
concept LeafWalkingAccessor =
    requires(A a, uint32_t slot, size_t* offset, bool outward) {
      { a.SeekLeaf(slot, offset) }
          -> std::convertible_to<std::span<const ColumnEntry>>;
      { a.StepLeaf(slot, outward) }
          -> std::convertible_to<std::span<const ColumnEntry>>;
      a.ChargeLeafStep(slot);
    };

/// Detected on sinks that can take a whole band without seeing its pops
/// (AdKernel's quiet bands). A pop is *loud* — it may change the
/// answer — iff the appearance count it brings its point to lies in
/// [open_level(), top_level()]; every other pop only counts. SkipPops(n)
/// accounts n pops the sink did not see.
template <typename S>
concept QuietBandSink = requires(S& s, uint64_t n) {
  { s.open_level() } -> std::convertible_to<uint32_t>;
  { s.top_level() } -> std::convertible_to<uint32_t>;
  s.SkipPops(n);
};

/// The stepping core of the AD (Ascending Difference) algorithm. It has
/// two drive paths, picked by the accessor type; each serves both
/// Drive() and Step().
///
/// **Band-synchronous ascend** (DirectColumnAccessor: columns are plain
/// memory; LeafWalkingAccessor: B+-tree leaves). Near a query the mean run — consecutive pops from one
/// cursor — is about one entry, so per-pop winner selection is a
/// serial chain on every pop. Instead each round picks a threshold
/// T above the smallest cursor front, emits every entry with
/// difference strictly below T from every cursor (slot-major, each
/// cursor walking outward, so emission order is (slot, index)),
/// stably sorts the band by difference (a counting sort on a monotone
/// bucket map, then an insertion pass inside each bucket), and
/// delivers it in order. A stable sort by difference of a slot-major
/// emission is exactly the heap's (difference, slot, index) order;
/// strict `< T` means no tie group straddles T; and each
/// entry is charged — appearance bump and its replacement attribute —
/// at delivery, the moment the heap engine would pop it. The band
/// width adapts toward kAdBandTarget entries, and the band buffer has a
/// fixed capacity: a band that would overflow it lowers T, and only a
/// tie group larger than the buffer is split, at a point where its
/// emission order already is its pop order (see EmitCursor).
///
/// **Quiet bands** (Drive over memory columns with a QuietBandSink).
/// The answer depends only on the order of the loud pops, those that
/// bring a point to an open level. Before sorting, Drive walks the band
/// in emission order, bumping each entry's appearance count and adding
/// its replacement attribute. A band with no loud pop is then done: it
/// leaves the same counts, attributes and answer sets in any order, so
/// it is never sorted and the sink only counts its pops. On the first
/// loud pop the walk takes its bumps back and the band is sorted and
/// delivered as above. Step() and tree columns always sort.
///
/// Over B+-tree columns each cursor walks its current leaf's entries in
/// place and moves to the next non-empty leaf with an uncharged read.
/// The leaf pages are charged where the heap engine's iterator reads
/// them: at delivery of the pop whose replacement is a leaf's first
/// entry, before the sink sees that pop. Page counts, injected faults
/// and page-budget trips therefore land on the same pop as on the heap
/// engine, and leaves emitted but never delivered are never charged.
///
/// **Block-ascending kernel** (everything else: paged disk and packed
/// columns, whose page-read order is part of the simulated-I/O
/// contract), built around three ideas from the external-merge
/// literature —
///
///   1. a loser (tournament) tree over the 2d direction cursors instead
///      of a binary heap: advancing the winning cursor is one
///      leaf-to-root replay instead of a pop followed by a push;
///   2. run-batched stepping: after winning, a cursor keeps consuming
///      consecutive entries while each (weighted) difference stays
///      strictly ahead of the runner-up's key — zero tree updates per
///      entry;
///   3. block reads: a RunReadingAccessor refills a cursor's
///      read-ahead buffer many entries at a time (SoA: values and pids
///      in separate arrays), which a disk accessor serves with
///      page-granular sequential I/O.
///
/// Pop order, answer sets, and attributes_retrieved are bit-for-bit
/// identical to the reference heap engine (AdEngine) on both paths: the
/// band path by the argument above; on the block path the loser tree
/// selects by the same total order (difference, slot); a run consumes
/// exactly the entries the heap would have popped consecutively from
/// that cursor; and every entry is charged when it enters the cursor
/// front (the moment the heap engine would have read it), never at
/// buffer-refill time. Differential tests enforce the equivalence.
///
/// `Accessor` must provide dims(), column_size(), ReadEntry(dim, idx,
/// slot) and LocateLowerBound(dim, v) as documented on AdEngine, and
/// may additionally provide:
///
///   // Reads up to `len` consecutive entries of `dim` walking away
///   // from the query: slot 2*dim covers idx, idx-1, ... (descending);
///   // slot 2*dim+1 covers idx, idx+1, ... (ascending). Fills
///   // values[i]/pids[i] in walk order and returns how many entries
///   // were produced (>= 1 unless the accessor failed, in which case 0
///   // with a latched status()). An accessor may return fewer than
///   // `len` when serving more would cost extra I/O (a page boundary):
///   // the kernel charges attributes as entries are consumed, so a
///   // short read must only ever stop at a boundary the per-entry path
///   // would also have charged for crossing.
///   size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
///                  Value* values, PointId* pids);
///
/// and/or `column_length(dim)` for ragged columns, as on AdEngine.
/// A LeafWalkingAccessor (tree columns) provides instead of ReadEntry:
///
///   // Positions `slot`'s cursor on its first entry with the charged
///   // seek the heap engine's first ReadEntry pays; returns the leaf
///   // holding it, with the entry's index in `*offset` (empty, with a
///   // latched status(), when the seek failed).
///   std::span<const ColumnEntry> SeekLeaf(uint32_t slot, size_t* offset);
///   // The next non-empty leaf beyond the cursor's walk position,
///   // outward (away from the query) or back inward, read uncharged.
///   std::span<const ColumnEntry> StepLeaf(uint32_t slot, bool outward);
///   // Charges the leaf visits of `slot`'s next delivered leaf crossing,
///   // latching a failed read in status().
///   void ChargeLeafStep(uint32_t slot);
template <typename Accessor>
class AdKernel {
 public:
  /// One popped attribute, as AdEngine::Pop.
  struct Pop {
    PointId pid;
    Value dif;
    uint16_t appearances;
  };

  /// True when the band-synchronous ascend walks B+-tree leaves.
  static constexpr bool kLeafPath =
      !DirectColumnAccessor<Accessor> && LeafWalkingAccessor<Accessor>;
  /// True when the kernel runs the band-synchronous ascend
  /// (DirectColumnAccessor or LeafWalkingAccessor), false for the block
  /// kernel.
  static constexpr bool kBandPath =
      DirectColumnAccessor<Accessor> || kLeafPath;

  AdKernel(Accessor& accessor, std::span<const Value> query,
           std::span<const Value> weights = {}, AdScratch* scratch = nullptr)
      : acc_(accessor),
        query_(query),
        weights_(weights),
        c_(accessor.column_size()),
        scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
    const size_t d = acc_.dims();
    assert(d >= 1);
    assert(query.size() == d);
    assert(weights.empty() || weights.size() == d);
    // As in AdEngine: sparse pid spaces advertise pid_bound() so the
    // appearance table is sized before the hot loop starts.
    size_t table = c_;
    if constexpr (requires { acc_.pid_bound(); }) {
      table = std::max<size_t>(table, acc_.pid_bound());
    }
    scratch_->Prepare(table, d);
    slots_ = 2 * d;
    next_idx_ = scratch_->next_idx();
    cur_dif_ = scratch_->cur_difs();
    if constexpr (kBandPath) {
      scratch_->PrepareBand();
      if constexpr (kLeafPath) leaf_ = scratch_->leaf_cursors();
    } else {
      cur_pid_ = scratch_->cur_pids();
      buf_pos_ = scratch_->buf_pos();
      buf_len_ = scratch_->buf_len();
      tree_ = &scratch_->loser_tree();
    }
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t len = ColumnLength(dim);
      size_t pos = acc_.LocateLowerBound(dim, query_[dim]);
      if (AccessorFailed()) return;
      if (pos > len) pos = len;
      const auto down = static_cast<uint32_t>(2 * dim);
      const uint32_t up = down + 1;
      next_idx_[down] = pos == 0 ? kExhausted : pos - 1;
      next_idx_[up] = pos == len ? kExhausted : pos;
      if constexpr (kBandPath) {
        LoadFront(down);
        LoadFront(up);
        if (AccessorFailed()) return;
      } else {
        buf_pos_[down] = buf_len_[down] = 0;
        buf_pos_[up] = buf_len_[up] = 0;
        Advance(down);
        Advance(up);
        if (AccessorFailed()) return;
      }
    }
    if constexpr (kBandPath) return;
    // Selection strategy: up to kScanSlots cursors the difs span a few
    // cache lines, and a branchless (SIMD where available) rescan per
    // run beats the loser tree's pointer walk, whose data-dependent
    // branches mispredict on effectively random keys. Past that the
    // O(log m) tree wins and the scan path is skipped.
    use_scan_ = slots_ <= kScanSlots;
    // Pad lanes up to the vector width hold +inf: they lose every
    // comparison, so whole-vector loads in ScanWinner are safe.
    for (size_t s = slots_; s < ((slots_ + 3) & ~size_t{3}); ++s) {
      cur_dif_[s] = kInfValue;
    }
    if (use_scan_) {
      pair_min_ = scratch_->pair_mins();
      for (size_t dim = 0; dim < d; ++dim) {
        pair_min_[dim] = std::min(cur_dif_[2 * dim], cur_dif_[2 * dim + 1]);
      }
      for (size_t dim = d; dim < ((d + 3) & ~size_t{3}); ++dim) {
        pair_min_[dim] = kInfValue;
      }
    } else {
      tree_->Build(slots_, cur_dif_);
    }
  }

  /// Runs the ascend loop, delivering pops in ascending (difference,
  /// slot) order to `sink(pid, dif, appearances)` until the sink
  /// returns false, the columns exhaust, or the accessor fails (check
  /// its status()). Over memory columns a QuietBandSink sees only the
  /// pops of bands holding a loud pop (see quiet bands above). A
  /// quiet band costs one sequential read, one appearance bump and
  /// one range compare per entry; a delivered one adds the sort and
  /// the sink. On the block path, inside a run, a pop is one buffered
  /// read, one difference, one appearance bump, and one comparison
  /// against the runner-up's key.
  template <typename Sink>
  void Drive(Sink&& sink) {
    Drive(sink, 0, [](uint64_t) { return true; },
          [](uint64_t) { return true; });
  }

  /// Drive with an amortized hook — the governance recheck. `on_due(m)`
  /// runs once the pops so far pass one or more multiples of `stride`
  /// (after the sink accepted the last of them), with `m` the multiples
  /// passed since its last call, and returns false to stop the drive.
  /// The band path bounds its delivery chunks by the next multiple, so
  /// its per-pop loop is the ungoverned one, and m is 1 except after a
  /// quiet band. The block path counts down in the sink. `stride` 0
  /// never calls it.
  ///
  /// A quiet band is applied whole only if `quiet_ok(attributes)`, the
  /// attribute count at its end, is true: the hook then promises that no
  /// recheck inside the band could have stopped the drive
  /// deterministically. Otherwise the band is sorted and delivered.
  template <typename Sink, typename OnDue, typename QuietOk>
  void Drive(Sink&& sink, uint64_t stride, OnDue&& on_due,
             QuietOk&& quiet_ok) {
    if constexpr (kBandPath) {
      DriveBand(sink, stride, on_due, quiet_ok);
    } else if (stride == 0) {
      DriveBlock(sink);
    } else {
      uint64_t due = stride;
      DriveBlock([&](PointId pid, Value dif, uint16_t a) {
        if (!sink(pid, dif, a)) return false;
        if (--due != 0) return true;
        due = stride;
        return static_cast<bool>(on_due(uint64_t{1}));
      });
    }
  }

  /// Pops the next attribute in ascending difference order; nullopt
  /// once every attribute of every column has been consumed — or once
  /// the accessor reports a failure. Single-stepping entry point for
  /// consumers that cannot batch (AdMatchStream). The band path
  /// delivers from the same bands Drive uses; the block path pays one
  /// tree replay per pop and no runner-up computation.
  std::optional<Pop> Step() {
    if constexpr (kBandPath) {
      if (AccessorFailed()) return std::nullopt;
      if (band_pos_ == band_len_) {
        Value lo, hi;
        const size_t n = EmitBand(lo, hi);
        if (n == 0) return std::nullopt;
        SortBand(n, lo, hi);
      }
      const AdBandEntry& e = band_out_[band_pos_++];
      if constexpr (kLeafPath) {
        if (e.tag & 2) {
          acc_.ChargeLeafStep(e.tag >> kTagShift);
          if (AccessorFailed()) return std::nullopt;
        }
      }
      attributes_retrieved_ += e.tag & 1;
      return Pop{e.pid, e.dif, scratch_->BumpAppearances(e.pid)};
    } else {
      if (AccessorFailed()) return std::nullopt;
      uint32_t w;
      if (use_scan_) {
        Value ru_unused, x2_unused, x3_unused;
        w = ScanWinner(&ru_unused, &x2_unused, &x3_unused);
      } else {
        w = tree_->winner();
      }
      if (cur_dif_[w] == kInfValue) return std::nullopt;
      const PointId pid = cur_pid_[w];
      const Value dif = cur_dif_[w];
      const uint16_t a = scratch_->BumpAppearances(pid);
      Advance(w);
      if (AccessorFailed()) return std::nullopt;
      if (use_scan_) {
        UpdatePairMin(w);
      } else {
        tree_->Replay(w, cur_dif_);
      }
      ++tree_replays_;
      return Pop{pid, dif, a};
    }
  }

  /// Attributes retrieved so far: each cursor's first entry plus one
  /// replacement per delivered pop whose cursor held another entry —
  /// never buffered read-ahead or emitted-but-undelivered band entries.
  uint64_t attributes_retrieved() const { return attributes_retrieved_; }
  /// Block path only: runs so far — stretches of consecutive pops from
  /// one cursor, one per winner selection (loser-tree replay or rescan;
  /// Step counts one per pop). The band path has no delivery order for
  /// its quiet bands, so it records no runs and these stay 0.
  uint64_t tree_replays() const { return tree_replays_; }
  /// Block path only: entries delivered across all runs (Drive only).
  uint64_t run_entries() const { return run_entries_; }
  /// Run lengths, log-bucketed with obs::Histogram's layout (bucket i
  /// >= 1 holds lengths in [2^(i-1), 2^i)); accumulated locally so the
  /// hot loop never touches an atomic.
  const std::array<uint64_t, 65>& run_length_buckets() const {
    return run_length_buckets_;
  }

 private:
  /// The block path's ascend loop (see Drive).
  template <typename Sink>
  void DriveBlock(Sink&& sink) {
    if (AccessorFailed()) return;
    if (use_scan_) {
      DriveScan(sink);
      return;
    }
    uint32_t w = tree_->winner();
    while (cur_dif_[w] != kInfValue) {
      const uint32_t ru = tree_->RunnerUp(w, cur_dif_);
      assert(ru != AdLoserTree::kNone && "2d >= 2 cursors always "
             "leave a (possibly exhausted) runner-up");
      const Value ru_dif = cur_dif_[ru];
      bool stop = false;
      uint64_t run_length = 0;
      for (;;) {
        const PointId pid = cur_pid_[w];
        const Value dif = cur_dif_[w];
        const uint16_t a = scratch_->BumpAppearances(pid);
        Advance(w);  // replacement read — charged exactly like the
                     // heap engine's post-pop ReadAndPush
        if (AccessorFailed()) {
          // Mirror AdEngine::Step: the pop whose replacement read
          // failed is not delivered.
          RecordRun(run_length);
          return;
        }
        ++run_length;
        if (!sink(pid, dif, a)) {
          stop = true;
          break;
        }
        // The run continues while this cursor still precedes the
        // runner-up in (difference, slot) order — exactly the
        // condition under which the heap would pop it again next.
        const Value nd = cur_dif_[w];
        if (nd < ru_dif || (nd == ru_dif && nd != kInfValue && w < ru)) {
          continue;
        }
        break;
      }
      RecordRun(run_length);
      tree_->Replay(w, cur_dif_);
      ++tree_replays_;
      if (stop) return;
      w = tree_->winner();
      // The refill-time prefetch warmed this slot into the outer
      // levels ~2d*kAdRunBlock pops ago; one more touch now, a full
      // run before the bump, covers the last hop into L1.
      scratch_->PrefetchAppearances(cur_pid_[w]);
    }
  }

  static constexpr size_t kExhausted = static_cast<size_t>(-1);
  /// Entries the band width seed probes out on each cursor.
  static constexpr size_t kBandProbeDepth = 16;
  /// Buckets up to which the band sort leaves a bucket to the final
  /// insertion pass; larger unsorted buckets are merge-sorted first.
  static constexpr size_t kBandInsertionLimit = 32;
  /// A band entry's tag holds its slot above this many flag bits (see
  /// AdBandEntry).
  static constexpr uint32_t kTagShift = kLeafPath ? 2 : 1;

  // ---- Band path (DirectColumnAccessor, LeafWalkingAccessor) -----------

  /// True when Drive can apply `Sink`'s quiet bands: memory columns,
  /// whose reads cost nothing to take back and charge no pages.
  template <typename Sink>
  static constexpr bool kQuietBands =
      DirectColumnAccessor<Accessor> &&
      QuietBandSink<std::remove_reference_t<Sink>>;

  template <typename Sink, typename OnDue, typename QuietOk>
  void DriveBand(Sink& sink, uint64_t stride, OnDue& on_due,
                 QuietOk& quiet_ok) {
    if (AccessorFailed()) return;
    // Pops left until the next multiple of `stride`; a delivery chunk
    // never crosses it, so the hook runs between chunks.
    uint64_t due = stride == 0 ? ~uint64_t{0} : stride;
    for (;;) {
      if (band_pos_ == band_len_) {
        Value lo, hi;
        const size_t n = EmitBand(lo, hi);
        if (n == 0) break;
        if constexpr (kQuietBands<Sink>) {
          if (ApplyQuietBand(sink, n, quiet_ok)) {
            if (n < due) {
              due -= n;
              continue;
            }
            // The multiples the band passed are rechecked at its end.
            const uint64_t past = n - due;
            due = stride - past % stride;
            if (!on_due(1 + past / stride)) break;
            continue;
          }
        }
        SortBand(n, lo, hi);
      }
      const AdBandEntry* const begin = band_out_ + band_pos_;
      const AdBandEntry* const end =
          begin + std::min<uint64_t>(band_len_ - band_pos_, due);
      const AdBandEntry* e = begin;
      bool stop = false;
      while (e != end) {
        const AdBandEntry& x = *e++;
        if constexpr (kLeafPath) {
          // The replacement opens the next leaf: its page is read now,
          // as the heap engine's iterator reads it. A failed read ends
          // the drive with this pop undelivered, as on AdEngine::Step.
          if (x.tag & 2) [[unlikely]] {
            acc_.ChargeLeafStep(x.tag >> kTagShift);
            if (AccessorFailed()) {
              --e;
              stop = true;
              break;
            }
          }
        }
        // Charged before the sink sees the pop — the moment the heap
        // engine reads the replacement — so on_due() after it observes
        // the heap engine's attribute count.
        attributes_retrieved_ += x.tag & 1;
        if (!sink(x.pid, x.dif, scratch_->BumpAppearances(x.pid))) {
          stop = true;
          break;
        }
      }
      const auto chunk = static_cast<uint64_t>(e - begin);
      band_pos_ += chunk;
      if (stop) break;
      due -= chunk;
      if (due == 0) {
        if (!on_due(uint64_t{1})) break;
        due = stride;
      }
    }
  }

  /// Walks the n emitted entries in emission order, bumping each one's
  /// appearance count and summing its replacement attributes. With no
  /// loud pop among them and `quiet_ok` agreeing, the band is applied:
  /// its attributes are charged, the sink counts its pops, and true is
  /// returned. Otherwise every bump taken is taken back (a count back at
  /// 0 reads as unseen) and the band is left for sorted delivery.
  template <typename Sink, typename QuietOk>
  bool ApplyQuietBand(Sink& sink, size_t n, QuietOk& quiet_ok) {
    const AdBandEntry* const band = scratch_->band();
    // Levels fill in order, so the open ones are one range [open, top]
    // and the loud test is one unsigned compare.
    const uint32_t open = sink.open_level();
    const uint32_t span = static_cast<uint32_t>(sink.top_level()) - open;
    uint64_t added = 0;
    size_t bumped = 0;
    bool loud = false;
    while (bumped < n) {
      const AdBandEntry& x = band[bumped++];
      added += x.tag & 1;
      if (uint32_t{scratch_->BumpAppearances(x.pid)} - open <= span)
          [[unlikely]] {
        loud = true;
        break;
      }
    }
    if (!loud && quiet_ok(attributes_retrieved_ + added)) {
      attributes_retrieved_ += added;
      sink.SkipPops(n);
      return true;
    }
    while (bumped > 0) scratch_->UnbumpAppearances(band[--bumped].pid);
    return false;
  }

  Value WeightOf(size_t dim) const {
    // Multiplying by 1.0 is exact, so the unweighted difference is
    // bit-identical to the reference's unmultiplied one.
    return weights_.empty() ? Value{1} : weights_[dim];
  }

  /// The (weighted) difference of value `v` on `slot`'s cursor,
  /// computed exactly as the reference engine computes it.
  Value EntryDif(uint32_t slot, Value v) const {
    const size_t dim = slot / 2;
    return (slot % 2 == 0 ? query_[dim] - v : v - query_[dim]) *
           WeightOf(dim);
  }

  /// EntryDif of entry `idx` of `slot`'s in-memory column.
  Value DifAt(uint32_t slot, size_t idx) const {
    return EntryDif(slot, acc_.values(slot / 2)[idx]);
  }

  /// Loads `slot`'s first entry as its cursor front, charging it — the
  /// heap engine's initial read (over tree columns, also its seek).
  void LoadFront(uint32_t slot) {
    const size_t idx = next_idx_[slot];
    if (idx == kExhausted) {
      cur_dif_[slot] = kInfValue;
      return;
    }
    if constexpr (kLeafPath) {
      size_t off = 0;
      const std::span<const ColumnEntry> leaf = acc_.SeekLeaf(slot, &off);
      if (AccessorFailed()) return;
      leaf_[slot] = AdLeafCursor{leaf.data(),
                                 static_cast<uint32_t>(leaf.size()),
                                 static_cast<uint32_t>(off)};
      ++attributes_retrieved_;
      cur_dif_[slot] = EntryDif(slot, leaf[off].value);
    } else {
      ++attributes_retrieved_;
      cur_dif_[slot] = DifAt(slot, idx);
    }
  }

  /// First band width: the density probe. Each live cursor's entry
  /// kBandProbeDepth out gives its local rate (entries per unit of
  /// difference); the width that would cover kAdBandTarget entries at
  /// the summed rate. 0 when every probe lands on a tie with its front
  /// (EmitBand then emits just the tie group at the lowest front).
  ///
  /// Over tree columns the probe stays inside the front's leaf.
  Value ProbeWidth() const {
    Value rate = 0;
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      const size_t idx = next_idx_[slot];
      if (idx == kExhausted) continue;
      if constexpr (kLeafPath) {
        const AdLeafCursor& c = leaf_[slot];
        const size_t beyond = slot % 2 == 0
                                  ? std::min<size_t>(idx, c.off)
                                  : std::min<size_t>(c_ - 1 - idx,
                                                     c.size - 1 - c.off);
        const size_t depth = std::min(beyond, kBandProbeDepth);
        if (depth == 0) continue;
        const Value span =
            EntryDif(slot, c.entries[slot % 2 == 0 ? c.off - depth
                                                   : c.off + depth]
                               .value) -
            cur_dif_[slot];
        if (span > 0) rate += static_cast<Value>(depth) / span;
      } else {
        const size_t beyond = slot % 2 == 0
                                  ? idx
                                  : acc_.values(slot / 2).size() - 1 - idx;
        const size_t depth = std::min(beyond, kBandProbeDepth);
        if (depth == 0) continue;
        const Value span =
            DifAt(slot, slot % 2 == 0 ? idx - depth : idx + depth) -
            cur_dif_[slot];
        if (span > 0) rate += static_cast<Value>(depth) / span;
      }
    }
    return rate > 0 ? static_cast<Value>(kAdBandTarget) / rate : Value{0};
  }

  /// Emits the next band into the band buffer in emission order and
  /// returns its entry count, all in [lo, hi]; 0 once every cursor is
  /// exhausted.
  size_t EmitBand(Value& lo, Value& hi) {
    lo = kInfValue;
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      lo = std::min(lo, cur_dif_[slot]);
    }
    if (lo == kInfValue) return 0;
    if (!(band_width_ > 0)) band_width_ = ProbeWidth();
    // T > lo, so the band holds at least part of the lowest front's tie
    // group.
    const Value tie_only = std::nextafter(lo, kInfValue);
    Value t = lo + band_width_;
    if (!(t > lo)) t = tie_only;
    const Value requested = t;
    size_t n = 0;
    hi = lo;
    for (uint32_t slot = 0; slot < slots_; ++slot) {
      bool full;
      if constexpr (kLeafPath) {
        full = slot % 2 == 0 ? EmitLeafCursor<false>(slot, lo, t, n, hi)
                             : EmitLeafCursor<true>(slot, lo, t, n, hi);
      } else {
        full = slot % 2 == 0 ? EmitCursor<false>(slot, lo, t, n, hi)
                             : EmitCursor<true>(slot, lo, t, n, hi);
      }
      if (full) break;
    }
    // A full buffer lowered T: steer from the width actually covered
    // (none when the band held only the lowest tie group: probe again).
    if (t != requested) band_width_ = t > tie_only ? t - lo : Value{0};
    // Steer the width toward the target count, at most 4x per band.
    band_width_ *= std::clamp(static_cast<Value>(kAdBandTarget) /
                                  static_cast<Value>(n),
                              Value{0.25}, Value{4});
    return n;
  }

  /// Appends every entry of `slot` with difference < t to the band,
  /// walking outward from the cursor front, and leaves the front at the
  /// first entry >= t (or exhausted). Raises `hi` to the largest
  /// difference emitted. Each entry's appearance slot is prefetched
  /// now, a band ahead of its bump.
  ///
  /// The band buffer never grows. When it is full and another entry is
  /// below t, T drops to that entry's difference and ShrinkBand takes
  /// back what lies at or above it, so the band stays every entry below
  /// the (lower) T. If that entry ties with the lowest front `lo`, T
  /// drops to just above `lo` instead, and a buffer still full holds
  /// part of one tie group: emission order is its pop order, so the
  /// band ends right there and the next band resumes the group at this
  /// cursor. Returns true in that case, so EmitBand skips the later
  /// slots, which could only add to the group.
  template <bool kUp>
  bool EmitCursor(uint32_t slot, Value lo, Value& t, size_t& n, Value& hi) {
    Value dif = cur_dif_[slot];
    size_t idx = next_idx_[slot];
    const size_t dim = slot / 2;
    const Value* vals = acc_.values(dim).data();
    const PointId* pids = acc_.pids(dim).data();
    const size_t len = acc_.values(dim).size();
    const Value q = query_[dim];
    const Value w = WeightOf(dim);
    const uint32_t tag = slot << kTagShift;
    AdBandEntry* const band = scratch_->band();
    Value last = hi;
    // The one band-membership test: strictly below t (an exhausted
    // cursor's +inf never is), so entries tied at t all wait for the
    // next band whichever cursor holds them.
    while (dif < t) {
      if (n == kAdBandCapacity) [[unlikely]] {
        next_idx_[slot] = idx;
        cur_dif_[slot] = dif;
        t = dif > lo ? dif : std::nextafter(lo, kInfValue);
        last = hi = ShrinkBand(lo, t, n);
        idx = next_idx_[slot];
        dif = cur_dif_[slot];
        if (n == kAdBandCapacity) return dif < t;
        continue;
      }
      const PointId pid = pids[idx];
      scratch_->PrefetchAppearances(pid);
      const bool more = kUp ? idx + 1 < len : idx > 0;
      band[n++] = AdBandEntry{dif, pid, tag | static_cast<uint32_t>(more)};
      last = dif;
      if (!more) {
        idx = kExhausted;
        dif = kInfValue;
        break;
      }
      idx = kUp ? idx + 1 : idx - 1;
      dif = (kUp ? vals[idx] - q : q - vals[idx]) * w;
    }
    hi = std::max(hi, last);
    next_idx_[slot] = idx;
    cur_dif_[slot] = dif;
    return false;
  }

  /// EmitCursor over a tree column: the same walk and band-membership
  /// test, reading the front's leaf in place. An entry whose successor
  /// lies in the next leaf is tagged `crosses`; the walk then moves on
  /// to that leaf uncharged, and delivery charges it. An exhausted
  /// cursor's leaf position stays on its last entry (ShrinkBand's
  /// rewind counts from there).
  template <bool kUp>
  bool EmitLeafCursor(uint32_t slot, Value lo, Value& t, size_t& n,
                      Value& hi) {
    Value dif = cur_dif_[slot];
    size_t idx = next_idx_[slot];
    AdLeafCursor c = leaf_[slot];
    const Value q = query_[slot / 2];
    const Value w = WeightOf(slot / 2);
    const uint32_t tag = slot << kTagShift;
    AdBandEntry* const band = scratch_->band();
    Value last = hi;
    while (dif < t) {
      if (n == kAdBandCapacity) [[unlikely]] {
        next_idx_[slot] = idx;
        cur_dif_[slot] = dif;
        leaf_[slot] = c;
        t = dif > lo ? dif : std::nextafter(lo, kInfValue);
        last = hi = ShrinkBand(lo, t, n);
        idx = next_idx_[slot];
        dif = cur_dif_[slot];
        c = leaf_[slot];
        if (n == kAdBandCapacity) return dif < t;
        continue;
      }
      const PointId pid = c.entries[c.off].pid;
      scratch_->PrefetchAppearances(pid);
      const bool more = kUp ? idx + 1 < c_ : idx > 0;
      const bool crosses = more && (kUp ? c.off + 1 == c.size : c.off == 0);
      band[n++] = AdBandEntry{dif, pid,
                              tag | static_cast<uint32_t>(crosses) << 1 |
                                  static_cast<uint32_t>(more)};
      last = dif;
      if (!more) {
        idx = kExhausted;
        dif = kInfValue;
        break;
      }
      idx = kUp ? idx + 1 : idx - 1;
      if (crosses) [[unlikely]] {
        const std::span<const ColumnEntry> leaf =
            acc_.StepLeaf(slot, /*outward=*/true);
        assert(!leaf.empty() && "the index promised another entry");
        c = AdLeafCursor{leaf.data(), static_cast<uint32_t>(leaf.size()),
                         kUp ? 0u : static_cast<uint32_t>(leaf.size() - 1)};
      } else {
        c.off = kUp ? c.off + 1 : c.off - 1;
      }
      const Value v = c.entries[c.off].value;
      dif = (kUp ? v - q : q - v) * w;
    }
    hi = std::max(hi, last);
    next_idx_[slot] = idx;
    cur_dif_[slot] = dif;
    leaf_[slot] = c;
    return false;
  }

  /// Moves `slot`'s leaf position `steps` entries back toward the query
  /// (ShrinkBand's rewind over tree columns), stepping leaves uncharged.
  void RewindLeaf(uint32_t slot, size_t steps) {
    AdLeafCursor& c = leaf_[slot];
    const bool up = slot % 2 == 1;
    for (;;) {
      const size_t room = up ? c.off : c.size - 1 - c.off;
      if (steps <= room) {
        c.off = static_cast<uint32_t>(up ? c.off - steps : c.off + steps);
        return;
      }
      steps -= room + 1;
      const std::span<const ColumnEntry> leaf =
          acc_.StepLeaf(slot, /*outward=*/false);
      c = AdLeafCursor{leaf.data(), static_cast<uint32_t>(leaf.size()),
                       up ? static_cast<uint32_t>(leaf.size() - 1) : 0u};
    }
  }

  /// Drops the n emitted entries at or above `t` and rewinds their
  /// cursors. Each slot's entries are one contiguous run, ascending, so
  /// the dropped ones are a suffix of it and the slot's front moves back
  /// to the first of them. Returns the largest kept difference (`lo`
  /// when none is kept).
  [[gnu::noinline]] Value ShrinkBand(Value lo, Value t, size_t& n) {
    AdBandEntry* const band = scratch_->band();
    Value hi = lo;
    size_t kept = 0;
    for (size_t i = 0; i < n;) {
      const uint32_t slot = band[i].tag >> kTagShift;
      size_t end = i;
      while (end < n && band[end].tag >> kTagShift == slot) ++end;
      size_t cut = i;
      while (cut < end && band[cut].dif < t) ++cut;
      if (cut > i) hi = std::max(hi, band[cut - 1].dif);
      if (cut < end) {
        // band[cut] is read before any later run is compacted over it.
        const size_t dropped = end - cut;
        size_t& idx = next_idx_[slot];
        if constexpr (kLeafPath) {
          RewindLeaf(slot, idx == kExhausted ? dropped - 1 : dropped);
        }
        if (slot % 2 == 0) {
          idx = idx == kExhausted ? dropped - 1 : idx + dropped;
        } else {
          idx = (idx == kExhausted ? ColumnEntries(slot / 2) : idx) -
                dropped;
        }
        cur_dif_[slot] = band[cut].dif;
      }
      if (kept != i) std::copy(band + i, band + cut, band + kept);
      kept += cut - i;
      i = end;
    }
    n = kept;
    return hi;
  }

  /// Stably sorts the n emitted entries (all in [lo, hi]) by difference
  /// and stages the result, band_out_, for delivery. Counting sort on the bucket
  /// map b = floor(min((dif - lo) * B / (hi - lo), B - 1)): IEEE subtract
  /// and multiply by a positive constant are monotone, so the map is,
  /// and a bucket holds only differences strictly between its
  /// neighbours'. The scatter keeps emission order inside a bucket, and
  /// the closing insertion pass (strict comparisons, so stable) orders
  /// each bucket without ever crossing into the next.
  void SortBand(size_t n, Value lo, Value hi) {
    band_pos_ = 0;
    band_len_ = n;
    AdBandEntry* in = scratch_->band();
    if (hi == lo) {
      band_out_ = in;  // one tie group: emission order is the order
      return;
    }
    AdBandEntry* out = scratch_->band_sorted();
    band_out_ = out;
    const size_t buckets = std::min(std::bit_ceil(n), kAdBandMaxBuckets);
    const Value nb = static_cast<Value>(buckets);
    // hi - lo can be subnormal; cap the scale so (dif - lo) * scale
    // never turns into 0 * inf.
    const Value scale =
        std::min(nb / (hi - lo), std::numeric_limits<Value>::max());
    uint16_t* bucket = scratch_->band_bucket();
    uint32_t* counts = scratch_->band_counts();
    std::fill(counts, counts + buckets, 0u);
    // min() before the conversion: (dif - lo) * scale lies in [0, +inf].
    const Value top = nb - 1;
    for (size_t i = 0; i < n; ++i) {
      bucket[i] = static_cast<uint16_t>(
          static_cast<uint32_t>(std::min((in[i].dif - lo) * scale, top)));
    }
    for (size_t i = 0; i < n; ++i) ++counts[bucket[i]];
    uint32_t widest = 0;
    uint32_t start = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = counts[b];
      widest = std::max(widest, count);
      counts[b] = start;
      start += count;
    }
    // counts[b] is now bucket b's start; the scatter advances it to
    // bucket b's end.
    for (size_t i = 0; i < n; ++i) out[counts[bucket[i]]++] = in[i];
    if (widest > kBandInsertionLimit) {
      // A crowded bucket (skewed differences) would make the insertion
      // pass quadratic; merge-sort it first. Tie groups arrive sorted.
      for (size_t b = 0; b < buckets; ++b) {
        const uint32_t first = b == 0 ? 0 : counts[b - 1];
        if (counts[b] - first <= kBandInsertionLimit) continue;
        AdBandEntry* const lo_e = out + first;
        AdBandEntry* const hi_e = out + counts[b];
        if (!std::is_sorted(lo_e, hi_e, DifLess)) {
          std::stable_sort(lo_e, hi_e, DifLess);
        }
      }
    }
    for (size_t i = 1; i < n; ++i) {
      if (!(out[i].dif < out[i - 1].dif)) continue;
      const AdBandEntry x = out[i];
      size_t j = i;
      do {
        out[j] = out[j - 1];
        --j;
      } while (j > 0 && x.dif < out[j - 1].dif);
      out[j] = x;
    }
  }

  static bool DifLess(const AdBandEntry& a, const AdBandEntry& b) {
    return a.dif < b.dif;
  }

  // ---- Block path (paged accessors) ------------------------------------

  /// Cursor count up to which flat rescan beats the loser tree (the
  /// difs array fits in two cache lines and the scan is branchless,
  /// where every tree-walk branch is a coin flip to the predictor).
  static constexpr size_t kScanSlots = 64;

  /// The scan-path ascend loop. Selection is ScanWinner's branchless
  /// min/max arithmetic; the run bound is the strict `dif < runner-up
  /// key` test. On a (difference, slot) tie with the runner-up the run
  /// ends one entry early and the rescan re-selects this cursor by the
  /// same total order the tree applies — pop order is identical, the
  /// tie just costs one extra rescan.
  ///
  /// Full rescans only happen every THIRD round. Each full scan yields
  /// the winner's key m1 plus the second and third smallest pair-min
  /// values x2 and x3 (multiset order), and two "free" rounds follow:
  ///
  /// Round B: when round A's run ends, every cursor sits at or above
  /// the old runner-up key `b` = min(x2, partner-of-A), the advanced
  /// cursor included (that is why the run ended), and some cursor still
  /// holds exactly `b` (all others are untouched since the scan). So
  /// the next winner's difference is `b` itself and SelectAt recovers
  /// its slot with the cheap equality pass alone. `b` also remains a
  /// valid (conservative) bound for this round: the true runner-up is
  /// >= `b`, so the round serves exactly one entry and order is
  /// preserved — same argument as the tie-with-runner-up case above.
  ///
  /// Round C: only the pairs of the round-A and round-B winners have
  /// moved since the scan, so the smallest pair-min over the UNTOUCHED
  /// pairs is still known from the scan's triple: it is x2 when B won
  /// inside A's pair (only one pair touched), else x3 (B's pair held
  /// exactly x2 when it was a different pair — any other pair's min is
  /// >= x2, and B's key `b` was <= x2 — so one instance each of x1 and
  /// x2 leave the multiset). The global minimum is that value folded
  /// with the two touched pairs' current mins, and SelectAt on it
  /// recovers the winning slot — again an exact (difference, slot)
  /// selection with a conservative one-entry bound. After round C the
  /// books are spent and the cycle restarts with a full scan.
  template <typename Sink>
  void DriveScan(Sink&& sink) {
    Value bound, x2, x3;
    uint32_t w = ScanWinner(&bound, &x2, &x3);
    if (cur_dif_[w] == kInfValue) return;
    uint32_t winner_a = w;
    uint32_t phase = 0;  // 0: round A (fresh scan), 1: round B, 2: round C
    for (;;) {
      uint64_t run_length = 0;
      bool stop = false;
      for (;;) {
        const PointId pid = cur_pid_[w];
        const Value dif = cur_dif_[w];
        const uint16_t a = scratch_->BumpAppearances(pid);
        Advance(w);  // replacement read — charged exactly like the
                     // heap engine's post-pop ReadAndPush
        if (AccessorFailed()) {
          // Mirror AdEngine::Step: the pop whose replacement read
          // failed is not delivered.
          RecordRun(run_length);
          return;
        }
        ++run_length;
        if (!sink(pid, dif, a)) {
          stop = true;
          break;
        }
        if (cur_dif_[w] >= bound) break;
      }
      RecordRun(run_length);
      ++tree_replays_;
      // Only w's pair changed during the run; fold its new front back
      // into the pair-min array the next selection (or a later Step)
      // reads.
      UpdatePairMin(w);
      if (stop) return;
      if (phase == 0) {
        // All cursors >= bound; bound == kInfValue means all exhausted.
        if (bound == kInfValue) return;
        winner_a = w;
        w = SelectAt(bound);
        phase = 1;  // keep `bound`; serves exactly one entry
      } else if (phase == 1) {
        const Value rest =
            (w >> 1) == (winner_a >> 1) ? x2 : x3;
        const Value vc = std::min(
            rest, std::min(pair_min_[winner_a >> 1], pair_min_[w >> 1]));
        if (vc == kInfValue) return;
        w = SelectAt(vc);
        bound = vc;
        phase = 2;
      } else {
        w = ScanWinner(&bound, &x2, &x3);
        if (cur_dif_[w] == kInfValue) return;
        phase = 0;
      }
    }
  }

  /// Returns the winning cursor given that the winning *difference* is
  /// already known to be `key` (see DriveScan's free round): the
  /// equality pass of ScanWinner without its min/max accumulation.
  /// Same (difference, slot) tie-break — first matching pair is the
  /// lowest, even lane preferred inside it.
  uint32_t SelectAt(Value key) const {
    const Value* pm = pair_min_;
    uint32_t pair;
#if defined(__SSE2__)
    const uint32_t npp = (static_cast<uint32_t>(slots_ / 2) + 3) & ~3u;
    const __m128d k = _mm_set1_pd(key);
    uint64_t mask = 0;
    for (uint32_t i = 0; i < npp; i += 4) {
      const auto lo = static_cast<uint64_t>(
          _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(pm + i), k)));
      const auto hi = static_cast<uint64_t>(
          _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(pm + i + 2), k)));
      mask |= (lo | (hi << 2)) << i;
    }
    assert(mask != 0 && "some cursor holds the known winning key");
    pair = static_cast<uint32_t>(std::countr_zero(mask));
#else
    pair = 0;
    while (pm[pair] != key) ++pair;
#endif
    const uint32_t base = 2 * pair;
    return base | static_cast<uint32_t>(cur_dif_[base] != key);
  }

  /// Refreshes the pair-min entry of `slot`'s dimension after its
  /// cursor front moved.
  void UpdatePairMin(uint32_t slot) {
    const uint32_t base = slot & ~1u;
    pair_min_[base >> 1] = std::min(cur_dif_[base], cur_dif_[base + 1]);
  }

  /// Returns the winning cursor — smallest (difference, slot) — and
  /// writes the runner-up's difference (the smallest among the other
  /// cursors) to `ru_dif`. Scans the d-wide pair-min array rather than
  /// the 2d difs; the winner inside the winning pair is whichever lane
  /// equals the pair min (even lane on a tie — the lower slot, exactly
  /// the (difference, slot) tie-break), and the runner-up is the better
  /// of the second-best pair min and the winner's partner lane.
  ///
  /// Also writes the second- and third-smallest pair-min *values*
  /// (multiset order — duplicates count) to `x2`/`x3`; DriveScan's
  /// second free round is derived from them.
  ///
  /// Branchless: the three smallest are tracked with pure min/max
  /// arithmetic — with mv = max(v, first), the exact (non-NaN) update
  /// is third' = min(third, max(second, mv)); second' = min(second,
  /// mv); first' = min(first, v) — and the winning pair's index rides
  /// alongside in double lanes, blended on the strict `v < first` mask,
  /// which keeps the FIRST minimum seen, i.e. the lowest pair index,
  /// exactly the (difference, slot) tie-break. Differences are never
  /// NaN (values, queries, and weights are finite; only exhaustion
  /// writes kInfValue), so the min/max identities are exact. Two
  /// sorted triples (fa, sa, ta), (fb, sb, tb) merge with the same
  /// algebra: with G = max(fa, fb) and ms = min(sa, sb), the union's
  /// three smallest are (min(fa, fb), min(G, ms), min(max(G, ms),
  /// min(ta, tb))).
  uint32_t ScanWinner(Value* ru_dif, Value* x2, Value* x3) const {
    const Value* pm = pair_min_;
    const uint32_t np = static_cast<uint32_t>(slots_ / 2);
    Value m1, m2, m3;
    uint32_t pair;
#if defined(__SSE2__)
    const uint32_t npp = (np + 3) & ~3u;
    __m128d f0 = _mm_set1_pd(kInfValue), f1 = f0;
    __m128d s0 = f0, s1 = f0, t0 = f0, t1 = f0;
    __m128d i0 = _mm_setzero_pd(), i1 = i0;
#if defined(__AVX2__)
    // 4 pair-mins per iteration in one 256-bit lane set — the same
    // min/max algebra and first-minimum index blend as the two-vector
    // SSE2 loop below, with identical lane->index assignment: the low
    // 128 bits carry pairs {i, i+1} and the high 128 pairs {i+2, i+3},
    // so splitting the accumulators reproduces (f0, f1, ...) exactly
    // and the chain merge below is shared. Re-measured on the packed
    // columns (see docs/perf.md); built only under KNMATCH_NATIVE_ARCH.
    {
      __m256d fw = _mm256_set1_pd(kInfValue), sw = fw, tw = fw;
      __m256d iw = _mm256_setzero_pd();
      __m256d cw = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
      const __m256d stepw = _mm256_set1_pd(4.0);
      for (uint32_t i = 0; i < npp; i += 4) {
        const __m256d v = _mm256_loadu_pd(pm + i);
        const __m256d lt = _mm256_cmp_pd(v, fw, _CMP_LT_OQ);
        const __m256d mv = _mm256_max_pd(v, fw);
        tw = _mm256_min_pd(tw, _mm256_max_pd(sw, mv));
        sw = _mm256_min_pd(sw, mv);
        fw = _mm256_min_pd(fw, v);
        iw = _mm256_blendv_pd(iw, cw, lt);
        cw = _mm256_add_pd(cw, stepw);
      }
      f0 = _mm256_castpd256_pd128(fw);
      f1 = _mm256_extractf128_pd(fw, 1);
      s0 = _mm256_castpd256_pd128(sw);
      s1 = _mm256_extractf128_pd(sw, 1);
      t0 = _mm256_castpd256_pd128(tw);
      t1 = _mm256_extractf128_pd(tw, 1);
      i0 = _mm256_castpd256_pd128(iw);
      i1 = _mm256_extractf128_pd(iw, 1);
    }
#else
    __m128d c0 = _mm_set_pd(1.0, 0.0);
    __m128d c1 = _mm_set_pd(3.0, 2.0);
    const __m128d step = _mm_set1_pd(4.0);
    for (uint32_t i = 0; i < npp; i += 4) {
      const __m128d v0 = _mm_loadu_pd(pm + i);
      const __m128d v1 = _mm_loadu_pd(pm + i + 2);
      const __m128d lt0 = _mm_cmplt_pd(v0, f0);
      const __m128d lt1 = _mm_cmplt_pd(v1, f1);
      const __m128d mv0 = _mm_max_pd(v0, f0);
      const __m128d mv1 = _mm_max_pd(v1, f1);
      t0 = _mm_min_pd(t0, _mm_max_pd(s0, mv0));
      t1 = _mm_min_pd(t1, _mm_max_pd(s1, mv1));
      s0 = _mm_min_pd(s0, mv0);
      s1 = _mm_min_pd(s1, mv1);
      f0 = _mm_min_pd(f0, v0);
      f1 = _mm_min_pd(f1, v1);
      i0 = _mm_or_pd(_mm_and_pd(lt0, c0), _mm_andnot_pd(lt0, i0));
      i1 = _mm_or_pd(_mm_and_pd(lt1, c1), _mm_andnot_pd(lt1, i1));
      c0 = _mm_add_pd(c0, step);
      c1 = _mm_add_pd(c1, step);
    }
#endif
    // Chain merge; a value tie sends the lower pair index forward.
    const __m128d teq = _mm_cmpeq_pd(f0, f1);
    const __m128d tlt = _mm_cmplt_pd(f0, f1);
    const __m128d ilt = _mm_cmplt_pd(i0, i1);
    const __m128d take0 = _mm_or_pd(tlt, _mm_and_pd(teq, ilt));
    const __m128d ia =
        _mm_or_pd(_mm_and_pd(take0, i0), _mm_andnot_pd(take0, i1));
    const __m128d gv = _mm_max_pd(f0, f1);
    const __m128d msv = _mm_min_pd(s0, s1);
    const __m128d fa = _mm_min_pd(f0, f1);
    const __m128d sa = _mm_min_pd(gv, msv);
    const __m128d ta =
        _mm_min_pd(_mm_max_pd(gv, msv), _mm_min_pd(t0, t1));
    const __m128d fh = _mm_unpackhi_pd(fa, fa);
    const double flo = _mm_cvtsd_f64(fa);
    const double fhi = _mm_cvtsd_f64(fh);
    const double ilo = _mm_cvtsd_f64(ia);
    const double ihi = _mm_cvtsd_f64(_mm_unpackhi_pd(ia, ia));
    const double slo = _mm_cvtsd_f64(sa);
    const double shi = _mm_cvtsd_f64(_mm_unpackhi_pd(sa, sa));
    const double tlo2 = _mm_cvtsd_f64(ta);
    const double thi2 = _mm_cvtsd_f64(_mm_unpackhi_pd(ta, ta));
    m1 = std::min(flo, fhi);
    const double g = std::max(flo, fhi);
    const double ms = std::min(slo, shi);
    m2 = std::min(g, ms);
    m3 = std::min(std::max(g, ms), std::min(tlo2, thi2));
    const bool low_lane = flo < fhi || (flo == fhi && ilo < ihi);
    pair = static_cast<uint32_t>(low_lane ? ilo : ihi);
#else
    Value f0 = kInfValue, f1 = kInfValue;
    Value s0 = kInfValue, s1 = kInfValue;
    Value t0 = kInfValue, t1 = kInfValue;
    uint32_t i = 0;
    for (; i + 2 <= np; i += 2) {
      const Value v0 = pm[i], v1 = pm[i + 1];
      const Value mv0 = std::max(v0, f0);
      const Value mv1 = std::max(v1, f1);
      t0 = std::min(t0, std::max(s0, mv0));
      t1 = std::min(t1, std::max(s1, mv1));
      s0 = std::min(s0, mv0);
      s1 = std::min(s1, mv1);
      f0 = std::min(f0, v0);
      f1 = std::min(f1, v1);
    }
    for (; i < np; ++i) {
      const Value v = pm[i];
      const Value mv = std::max(v, f0);
      t0 = std::min(t0, std::max(s0, mv));
      s0 = std::min(s0, mv);
      f0 = std::min(f0, v);
    }
    m1 = std::min(f0, f1);
    const Value g = std::max(f0, f1);
    const Value ms = std::min(s0, s1);
    m2 = std::min(g, ms);
    m3 = std::min(std::max(g, ms), std::min(t0, t1));
    pair = 0;
    while (pm[pair] != m1) ++pair;
#endif
    *x2 = m2;
    *x3 = m3;
    const uint32_t base = 2 * pair;
    // Even lane first on a tie: the lower slot wins equal differences.
    // Branchless — which lane holds the pair min is a coin flip.
    const uint32_t w = base | static_cast<uint32_t>(cur_dif_[base] != m1);
    *ru_dif = std::min(m2, cur_dif_[w ^ 1]);
    return w;
  }

  /// Entries in `dim`'s column on the band path.
  size_t ColumnEntries(size_t dim) const {
    if constexpr (kLeafPath) {
      (void)dim;
      return c_;
    } else {
      return acc_.values(dim).size();
    }
  }

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
    if constexpr (KernelStatusReportingAccessor<Accessor>) {
      return !acc_.status().ok();
    } else {
      return false;
    }
  }

  void RecordRun(uint64_t length) {
    if (length == 0) return;
    run_entries_ += length;
    ++run_length_buckets_[std::bit_width(length)];
  }

  /// Refills `slot`'s read-ahead buffer from the accessor. Returns
  /// false when the column direction is exhausted or the accessor
  /// failed (nothing buffered).
  bool Refill(uint32_t slot) {
    const size_t idx = next_idx_[slot];
    if (idx == kExhausted) return false;
    const size_t dim = slot / 2;
    size_t got;
    if constexpr (RunReadingAccessor<Accessor>) {
      // Entries available walking away from the query from idx.
      const size_t avail =
          slot % 2 == 0 ? idx + 1 : ColumnLength(dim) - idx;
      const size_t want = std::min(avail, kAdRunBlock);
      got = acc_.ReadRun(dim, idx, want, slot, scratch_->buf_values(slot),
                         scratch_->buf_pids(slot));
      if (AccessorFailed()) return false;
      assert(got >= 1 && got <= want);
    } else {
      const ColumnEntry e = acc_.ReadEntry(dim, idx, slot);
      if (AccessorFailed()) return false;
      scratch_->buf_values(slot)[0] = e.value;
      scratch_->buf_pids(slot)[0] = e.pid;
      got = 1;
    }
    buf_pos_[slot] = 0;
    buf_len_[slot] = static_cast<uint32_t>(got);
    // Every buffered pid gets its appearance slot bumped when it pops;
    // touching those (random) lines now overlaps the misses with the
    // pops of other cursors instead of stalling each pop in turn.
    const PointId* pids = scratch_->buf_pids(slot);
    for (size_t i = 0; i < got; ++i) scratch_->PrefetchAppearances(pids[i]);
    if (slot % 2 == 0) {
      next_idx_[slot] = idx + 1 == got ? kExhausted : idx - got;
    } else {
      next_idx_[slot] =
          idx + got == ColumnLength(dim) ? kExhausted : idx + got;
    }
    return true;
  }

  /// Moves `slot`'s cursor front one entry outward: pulls the next
  /// buffered entry (refilling if needed), charges it as retrieved, and
  /// computes its weighted difference. Marks the cursor exhausted
  /// (kInfValue) when its column direction runs dry.
  void Advance(uint32_t slot) {
    if (buf_pos_[slot] == buf_len_[slot] && !Refill(slot)) {
      cur_dif_[slot] = kInfValue;
      cur_pid_[slot] = kInvalidPointId;
      return;
    }
    const uint32_t p = buf_pos_[slot]++;
    const Value v = scratch_->buf_values(slot)[p];
    // Charged here — when the entry enters the cursor front, which is
    // the moment the per-entry reference engine reads it — so buffered
    // read-ahead never inflates the paper's cost metric.
    ++attributes_retrieved_;
    const size_t dim = slot / 2;
    Value dif = slot % 2 == 0 ? query_[dim] - v : v - query_[dim];
    if (!weights_.empty()) dif *= weights_[dim];
    cur_dif_[slot] = dif;
    cur_pid_[slot] = scratch_->buf_pids(slot)[p];
  }

  Accessor& acc_;
  std::span<const Value> query_;
  std::span<const Value> weights_;
  size_t c_;
  size_t slots_ = 0;
  bool use_scan_ = false;
  uint64_t attributes_retrieved_ = 0;
  uint64_t tree_replays_ = 0;
  uint64_t run_entries_ = 0;
  std::array<uint64_t, 65> run_length_buckets_{};
  AdScratch owned_scratch_;  // used when the caller supplies no arena
  AdScratch* scratch_;
  AdLoserTree* tree_ = nullptr;
  size_t* next_idx_ = nullptr;
  Value* cur_dif_ = nullptr;
  PointId* cur_pid_ = nullptr;
  uint32_t* buf_pos_ = nullptr;
  uint32_t* buf_len_ = nullptr;
  Value* pair_min_ = nullptr;  // scan path only
  AdLeafCursor* leaf_ = nullptr;  // tree band path only
  // Band path only: the requested width (0 = probe before the next
  // band) and the staged band in delivery order.
  Value band_width_ = 0;
  const AdBandEntry* band_out_ = nullptr;
  size_t band_pos_ = 0;
  size_t band_len_ = 0;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_CORE_AD_KERNEL_H_
