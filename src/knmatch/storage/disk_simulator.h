#ifndef KNMATCH_STORAGE_DISK_SIMULATOR_H_
#define KNMATCH_STORAGE_DISK_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/storage/fault_injector.h"

namespace knmatch {

/// Cost model of the simulated disk.
///
/// The paper's experiments ran on a 2006-era desktop; we do not try to
/// reproduce its absolute seconds. Instead the simulator counts page
/// accesses — the paper's own primary efficiency metric — and converts
/// them to modelled time with a sequential/random split. A page read is
/// *sequential* when it is adjacent (+/-1) to the previous page read by
/// the same stream (cursor); this models per-cursor read-ahead buffers
/// and matches the paper's observation that the AD algorithm's forward
/// searches enjoy sequential access.
struct DiskConfig {
  /// Page size in bytes (the paper uses 4096).
  size_t page_size = 4096;
  /// Modelled cost of a sequential page read, milliseconds. The default
  /// (0.5 ms) reflects a 2006-era disk's *effective* per-page scan rate
  /// (transfer plus per-page processing), calibrated so the sequential
  /// scan of the paper's texture dataset lands near its measured ~1 s.
  double sequential_read_ms = 0.5;
  /// Modelled cost of a random page read (seek + rotational delay),
  /// milliseconds.
  double random_read_ms = 5.0;
  /// Ablation switch: when true, sequential/random classification uses
  /// one global head position instead of per-stream positions — the
  /// pessimistic model where interleaved cursors (e.g., the AD
  /// algorithm's 2d directions) destroy each other's locality because
  /// nothing buffers per cursor. The default (false) models per-cursor
  /// read-ahead buffers.
  bool single_head = false;
  /// Buffer-pool capacity in pages (0 disables caching). A read whose
  /// page is resident costs nothing and does not move the head;
  /// eviction is LRU. Counted separately as buffer_hits.
  size_t buffer_pool_pages = 0;
};

/// Counts simulated page I/O, classified per stream into sequential and
/// random reads. All paged files of one simulated database share one
/// simulator; page ids are global, mirroring physical placement (each
/// file's pages are contiguous, files laid out one after another).
///
/// Fault model: an optional FaultInjector decides the outcome of every
/// *physical* read attempt (reads served from a reader's own page
/// buffer or the shared pool never reach the media and cannot fault).
/// Every physical attempt — failed or not — costs I/O and is counted,
/// so retries show up in the modelled time; failed attempts are
/// additionally tallied in failed_reads() and never populate the buffer
/// pool. Pages whose contents prove unrecoverable are quarantined:
/// subsequent reads are refused immediately, without charging I/O,
/// until ClearQuarantine().
///
/// Thread safety: all public methods are internally synchronized by
/// one mutex, so concurrent snapshot readers (the live-ingest engine
/// runs AD queries against pinned epochs while a writer commits) can
/// charge I/O on their own streams without data races. The attached
/// FaultInjector is only ever consulted under that mutex, so it needs
/// no locking of its own.
class DiskSimulator {
 public:
  explicit DiskSimulator(DiskConfig config = DiskConfig())
      : config_(config) {}

  /// The configured cost model.
  const DiskConfig& config() const { return config_; }

  /// Attaches a fault source (nullptr detaches). Not owned; must
  /// outlive the simulator or be detached first.
  void set_fault_injector(FaultInjector* injector) {
    std::lock_guard<std::mutex> lock(mu_);
    injector_ = injector;
  }
  FaultInjector* fault_injector() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injector_;
  }

  /// Allocates `count` fresh page ids (one contiguous run) and returns
  /// the first. Called by files at build time.
  uint64_t AllocatePages(uint64_t count);

  /// Opens an access stream (a cursor with its own read-ahead state)
  /// that stays open for the simulator's lifetime. Per-query cursors
  /// lease theirs instead (StreamLease), so the stream table stays
  /// bounded however many queries run.
  size_t OpenStream();

  /// Forgets `stream`'s position and buffer, so its next read seeks
  /// like a fresh stream's. For long-lived streams reused per operation
  /// (a B+-tree's writer descents).
  void RewindStream(size_t stream);

  /// Stream-table slots, open and released (released ones are reused
  /// by the next open). Bounded by the most streams ever open at once.
  size_t stream_slots() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stream_last_page_.size();
  }

  /// Physical read attempts the calling thread has charged, on any
  /// simulator. A query runs on one thread, so the difference across
  /// it is the pages that query read, whatever other threads read
  /// meanwhile (QueryContext's page budget).
  static uint64_t thread_reads();

  /// Outcome of one physical read attempt (mirrors
  /// FaultInjector::Outcome so callers need not reach the injector).
  enum class ReadOutcome {
    kOk,
    kTransientError,
    kCorruption,
  };

  /// Performs one read attempt of `page` on `stream`: consults the
  /// fault injector (if any), charges the attempt's I/O, and updates
  /// the stream's position and buffer state. Buffered reads return kOk
  /// without touching the media. Failed attempts leave the reader's
  /// page buffer invalid, so a retry is a fresh physical read (charged
  /// as sequential: the head is already on the page).
  ReadOutcome ReadAttempt(size_t stream, uint64_t page);

  /// Infallible read accounting: one attempt, outcome ignored. The
  /// legacy entry point for structures that only model I/O counts
  /// (R-tree, SS-tree node visits) and for tests of the cost model.
  void RecordRead(size_t stream, uint64_t page);

  /// A complete charged read with the standard fault policy: refused
  /// immediately if quarantined; up to kMaxReadAttempts attempts with
  /// transient errors retried; corruption quarantines the page and
  /// reports kDataLoss. For callers without page bytes of their own
  /// (the B+-tree's modelled node visits); PagedFile layers checksum
  /// verification on top of ReadAttempt instead.
  Status ChargedRead(size_t stream, uint64_t page);

  /// Retry budget of ChargedRead (and PagedFile::ReadPage).
  static constexpr int kMaxReadAttempts = 3;

  /// Quarantine of unrecoverable pages.
  bool IsQuarantined(uint64_t page) const;
  /// Marks `page` unrecoverable and evicts it from the buffer pool.
  void QuarantinePage(uint64_t page);
  /// Lifts every quarantine (after the fault source is cleared).
  void ClearQuarantine();
  size_t quarantined_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_.size();
  }

  /// Evicts `page` from the shared buffer pool (e.g., when its cached
  /// image failed verification).
  void EvictPage(uint64_t page);

  /// A set of streams opened together and released together when the
  /// lease dies — one simulator-lock acquisition each way. A released
  /// id is reused by a later open with its position reset, so "the
  /// first access of a stream seeks" holds for every lease. Move-only.
  class StreamLease {
   public:
    StreamLease() = default;
    /// Opens `count` streams on `disk` (nullptr: no simulator, every id
    /// 0 and nothing to release).
    StreamLease(DiskSimulator* disk, size_t count);
    ~StreamLease() { Release(); }
    StreamLease(StreamLease&& other) noexcept
        : disk_(std::exchange(other.disk_, nullptr)),
          ids_(std::move(other.ids_)) {}
    StreamLease& operator=(StreamLease&& other) noexcept {
      if (this != &other) {
        Release();
        disk_ = std::exchange(other.disk_, nullptr);
        ids_ = std::move(other.ids_);
      }
      return *this;
    }
    StreamLease(const StreamLease&) = delete;
    StreamLease& operator=(const StreamLease&) = delete;

    size_t operator[](size_t i) const { return ids_[i]; }
    size_t size() const { return ids_.size(); }

   private:
    void Release();
    DiskSimulator* disk_ = nullptr;
    std::vector<size_t> ids_;
  };

  /// Counters. Sequential/random totals include failed attempts — every
  /// physical attempt costs I/O — and failed_reads() tallies them.
  uint64_t sequential_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sequential_reads_;
  }
  uint64_t random_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return random_reads_;
  }
  uint64_t total_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sequential_reads_ + random_reads_;
  }
  uint64_t failed_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_reads_;
  }
  /// Reads absorbed by the buffer pool (only when configured).
  uint64_t buffer_hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_hits_;
  }

  /// Modelled elapsed I/O time, in seconds, for the recorded reads.
  double SimulatedIoSeconds() const;

  /// Resets the counters (not the allocated pages or open streams).
  /// Called between measured queries. The buffer pool's contents
  /// survive a reset (it models a warm cache across queries); call
  /// DropBufferPool() for a cold one.
  void ResetCounters();

  /// Empties the buffer pool.
  void DropBufferPool();

 private:
  /// Charges one physical attempt: sequential/random classification
  /// against the stream's position, which then moves to `page`.
  void ChargeAttempt(size_t stream, uint64_t page);
  /// Moves the stream's position to `page` and records whether its
  /// page buffer now holds valid contents.
  void SetPosition(size_t stream, uint64_t page, bool buffer_valid);
  /// Unsynchronized bodies, called with mu_ held.
  size_t OpenStreamLocked();
  ReadOutcome ReadAttemptLocked(size_t stream, uint64_t page);
  void QuarantinePageLocked(uint64_t page);

  /// Guards every member below; public methods lock it on entry.
  mutable std::mutex mu_;
  DiskConfig config_;
  FaultInjector* injector_ = nullptr;
  uint64_t next_page_ = 0;
  // A stream's state splits into *position* (where the head last was,
  // driving sequential/random classification) and *buffer validity*
  // (whether the read-ahead buffer holds the positioned page's
  // contents). They differ exactly after a failed attempt: the head
  // reached the page but nothing usable transferred, so a re-read of
  // the same page must be charged again.
  std::vector<uint64_t> stream_last_page_;
  std::vector<bool> stream_has_pos_;
  std::vector<bool> stream_buffer_valid_;
  /// Released stream ids, reused before the table grows.
  std::vector<size_t> free_streams_;
  uint64_t head_last_page_ = 0;
  bool head_has_pos_ = false;
  bool head_buffer_valid_ = false;
  uint64_t sequential_reads_ = 0;
  uint64_t random_reads_ = 0;
  uint64_t failed_reads_ = 0;
  uint64_t buffer_hits_ = 0;
  std::unordered_set<uint64_t> quarantined_;

  /// LRU buffer pool over global page ids: doubly-linked recency list
  /// plus an index into it. Lookup refreshes recency on a hit; Insert
  /// adds a page, evicting the back beyond capacity. Only successful
  /// reads insert — a failed transfer must not populate the cache.
  struct BufferPool {
    std::list<uint64_t> recency;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index;
    bool Lookup(uint64_t page);
    void Insert(uint64_t page, size_t capacity);
    void Erase(uint64_t page);
    void Clear();
  };
  BufferPool pool_;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_DISK_SIMULATOR_H_
