#ifndef KNMATCH_STORAGE_BPLUS_TREE_H_
#define KNMATCH_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/storage/free_space.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

/// A disk-based B+-tree over (value, pid) entries, keyed by
/// (value, pid) lexicographically. This is the index structure a real
/// deployment would put on each sorted dimension instead of the
/// ColumnStore's in-memory page directory: lower-bound seeks traverse
/// root-to-leaf with one charged page read per node, and leaf pages are
/// chained both ways so the AD algorithm's two cursor directions
/// translate to sideways leaf walks.
///
/// Supported operations: bottom-up bulk load from a sorted column,
/// charged lower-bound seek, bidirectional leaf iteration, and
/// incremental insertion with node splits (so a column can be kept
/// up to date as points are appended to the database). Deletion is
/// lazy by default (no rebalancing); with EnableReclamation() a leaf
/// emptied by erases is unlinked, removed from its parent, and its
/// slot handed to the free-space manager for reuse.
///
/// Versioned reads (the live-ingest engine's snapshot mechanism): the
/// tree's state is a Version — a table of shared_ptr<const Node> plus
/// the root/leaf-chain scalars. CreateSnapshot() copies the pointer
/// table (O(#nodes) pointer copies, no node copies) and freezes it;
/// mutations after a snapshot copy-on-write exactly the nodes they
/// touch, so every outstanding Snapshot keeps observing the frozen
/// state while the writer moves on. Snapshots are immutable and safe
/// to read from other threads (their I/O charging goes through the
/// internally-synchronized DiskSimulator); the tree itself remains
/// single-writer, externally synchronized.
class BPlusTree {
 public:
  /// Observes successful mutations of the tree's entry set. The hook
  /// behind cache invalidation: a listener on each per-dimension tree
  /// lets a result cache evict exactly the entries a point mutation
  /// could affect. By default callbacks fire after the tree is
  /// updated, on the mutating thread; inside an ingest transaction
  /// (BeginPendingNotifications) they are buffered and delivered only
  /// once the transaction's commit is durable, so a crashed
  /// transaction can never have evicted or poisoned cache entries.
  /// BulkLoad does not notify (it replaces the whole column — callers
  /// handling a rebuild should clear dependent state themselves).
  class MutationListener {
   public:
    virtual ~MutationListener() = default;
    virtual void OnInsert(const ColumnEntry& entry) = 0;
    virtual void OnErase(const ColumnEntry& entry) = 0;
  };

  /// Creates an empty tree whose nodes live on `disk`. The simulator
  /// must outlive the tree.
  explicit BPlusTree(DiskSimulator* disk);

  /// Registers `listener` (nullptr to detach) for Insert/Erase
  /// notifications. The listener must outlive the tree or be detached
  /// first; it is invoked under no tree lock (the tree is externally
  /// synchronized, like all its mutations).
  void set_mutation_listener(MutationListener* listener) {
    listener_ = listener;
  }

  /// Bulk loads from entries sorted ascending by (value, pid).
  /// Replaces any existing content. O(n).
  void BulkLoad(std::span<const ColumnEntry> sorted_entries);

  /// Inserts one entry, splitting nodes as needed. O(log n) charged
  /// page reads (plus uncharged writes, which are deferrable). Fails
  /// without modifying the tree when the root-to-leaf descent cannot
  /// read a node page.
  Status Insert(ColumnEntry entry);

  /// Removes the exact (value, pid) entry if present; returns whether
  /// it was found. No rebalancing; see EnableReclamation() for what
  /// happens to emptied leaves. Fails without modifying the tree when
  /// the descent cannot read a node page.
  Result<bool> Erase(ColumnEntry entry);

  /// Number of entries.
  size_t size() const { return cur_.size; }
  /// The simulator this tree charges its node visits to (for
  /// page-budget accounting via QueryContext::ArmPages).
  const DiskSimulator* disk() const { return disk_; }
  /// Tree height (0 for an empty tree, 1 for a single leaf).
  size_t height() const { return cur_.height; }
  /// Total node slots (== pages) of the tree, free slots included.
  size_t num_nodes() const { return cur_.nodes.size(); }

 private:
  // Nodes are fixed-fanout, sized to mimic one 4 KB page:
  // 12-byte entries in leaves -> ~340; (key, child) pairs in internal
  // nodes -> ~256. We keep the arithmetic simple with round figures
  // (and the serialized forms fit a framed 4 KB page with room for the
  // live-ingest page key; static_asserted in the .cc).
  static constexpr size_t kLeafCapacity = 256;
  static constexpr size_t kInternalCapacity = 128;
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;

  struct Node {
    bool leaf = true;
    // Leaf: entries sorted by (value, pid); prev/next sibling links
    // (slot indices resolved through the owning Version's table).
    std::vector<ColumnEntry> entries;
    uint32_t prev = kInvalid;
    uint32_t next = kInvalid;
    // Internal: keys.size() + 1 == children.size(); keys[i] is the
    // smallest key in the subtree of children[i+1]. counts[i] is the
    // number of entries under children[i] (order-statistic
    // augmentation, for RankOf).
    std::vector<ColumnEntry> keys;
    std::vector<uint32_t> children;
    std::vector<uint64_t> counts;
  };

  /// One immutable-once-published state of the tree. Node links are
  /// slot indices, resolved through this table — so a frozen Version
  /// and the writer's evolving one share unchanged nodes and diverge
  /// only on the copied-on-write ones.
  struct Version {
    std::vector<std::shared_ptr<const Node>> nodes;
    /// Global disk page id per node slot (nodes are one page each).
    std::vector<uint64_t> page_of;
    uint32_t root = kInvalid;
    uint32_t first_leaf = kInvalid;
    size_t size = 0;
    size_t height = 0;
  };

 public:
  /// Leaf id past either end of the leaf chain.
  static constexpr uint32_t kNoLeaf = kInvalid;

  /// One leaf's entries in key order, and the leaf's id (kNoLeaf, with
  /// no entries, past either end of the chain). Borrows the Version it
  /// was read from, like an Iterator.
  struct LeafSpan {
    std::span<const ColumnEntry> entries;
    uint32_t leaf = kNoLeaf;
  };

  /// A charged cursor into the leaf level of one Version. A cursor
  /// that hits an unreadable leaf page becomes invalid with a non-OK
  /// status(); distinguish "walked off the end" (invalid, OK status)
  /// from "the store is damaged" (invalid, error status).
  ///
  /// Lifetime: an iterator borrows the Version it was created from —
  /// it must not outlive the tree (live iterators) or the Snapshot
  /// (snapshot iterators) that produced it.
  class Iterator {
   public:
    /// True while the iterator points at an entry.
    bool Valid() const { return node_ != kInvalid; }
    /// OK unless a leaf page failed to read during a seek or a move.
    const Status& status() const { return status_; }
    /// The entry under the cursor. Requires Valid().
    ColumnEntry Get() const;
    /// Moves one entry forward (ascending). Crossing a leaf boundary
    /// charges a page read to this iterator's stream.
    void Next();
    /// Moves one entry backward (descending); invalid before the first
    /// entry.
    void Prev();
    /// The leaf under the cursor, and the cursor's index in it.
    /// Require Valid().
    LeafSpan leaf() const;
    size_t leaf_offset() const { return slot_; }

   private:
    friend class BPlusTree;
    static constexpr uint32_t kInvalid = 0xFFFFFFFFu;
    const Version* v_ = nullptr;
    DiskSimulator* disk_ = nullptr;
    size_t stream_ = 0;
    uint32_t node_ = kInvalid;
    size_t slot_ = 0;
    Status status_;
  };

  /// A frozen, immutable view of the tree: the read side of the
  /// live-ingest engine's epoch mechanism. Cheap to copy (shared
  /// ownership of the Version). Safe to use from any thread; seeks
  /// and iterator moves charge I/O through the thread-safe simulator.
  class Snapshot {
   public:
    Snapshot() = default;

    size_t size() const { return v_ == nullptr ? 0 : v_->size; }
    size_t height() const { return v_ == nullptr ? 0 : v_->height; }
    const DiskSimulator* disk() const { return disk_; }

    size_t OpenStream() const { return disk_->OpenStream(); }
    DiskSimulator::StreamLease OpenStreams(size_t count) const {
      return DiskSimulator::StreamLease(disk_, count);
    }
    Iterator SeekLowerBound(size_t stream, Value v) const;
    Iterator SeekBefore(size_t stream, Value v) const;
    Result<size_t> RankOf(size_t stream, Value v) const;
    LeafSpan NextLeaf(uint32_t leaf, bool ascending) const;
    Result<uint32_t> ChargeLeafStep(size_t stream, uint32_t leaf,
                                    bool ascending) const;

   private:
    friend class BPlusTree;
    Snapshot(std::shared_ptr<const Version> v, DiskSimulator* disk)
        : v_(std::move(v)), disk_(disk) {}
    std::shared_ptr<const Version> v_;
    DiskSimulator* disk_ = nullptr;
  };

  /// Freezes the current state into a Snapshot. O(#nodes) pointer
  /// copies; the next mutation of each node pays one node copy.
  /// Called by the ingest writer after a durable commit.
  Snapshot CreateSnapshot();

  /// Opens an I/O stream for a cursor (each AD direction gets its own).
  size_t OpenStream() const;

  /// Seeks to the first entry with (value, pid) >= (v, 0); the
  /// traversal charges height() page reads to `stream`. The returned
  /// iterator is invalid when every entry is smaller — or, with a
  /// non-OK status(), when a node page could not be read.
  Iterator SeekLowerBound(size_t stream, Value v) const;

  /// An iterator at the first entry smaller than (v, 0) — the starting
  /// point of a descending cursor. Shares the seek's charged traversal.
  Iterator SeekBefore(size_t stream, Value v) const;

  /// Rank (number of entries strictly below (v, 0)). Charges one
  /// root-to-leaf traversal to `stream`.
  Result<size_t> RankOf(size_t stream, Value v) const;

  /// The next non-empty leaf after `leaf` in key order (ascending) or
  /// against it, read without charging I/O — the band-ascend kernel's
  /// in-place leaf walk, whose visits are charged later, when the
  /// entries are delivered (ChargeLeafStep).
  LeafSpan NextLeaf(uint32_t leaf, bool ascending) const;

  /// Charges to `stream` exactly the leaf visits an iterator pays
  /// stepping out of `leaf` (Next when ascending, Prev otherwise):
  /// every leaf page up to and including the next non-empty one,
  /// stopping at the first failed read. Returns the non-empty leaf
  /// reached (kNoLeaf past the chain's end).
  Result<uint32_t> ChargeLeafStep(size_t stream, uint32_t leaf,
                                  bool ascending) const;

  /// Opens `count` streams for one query's cursors, released together
  /// when the lease dies.
  DiskSimulator::StreamLease OpenStreams(size_t count) const {
    return DiskSimulator::StreamLease(disk_, count);
  }

  /// Validates the B+-tree invariants (sortedness, fanout bounds, leaf
  /// chain consistency, key/child separators). For tests and recovery.
  Status CheckInvariants() const;

  // --- Live-ingest hooks (storage/ingest.h drives these). ---

  /// Reclaims leaves emptied by Erase: unlink from the chain, remove
  /// from the parent (cascading if the parent empties too), and hand
  /// the slot to the free-space manager for reuse by later inserts.
  void EnableReclamation() { reclaim_ = true; }
  /// Reusable node slots currently tracked by the free-space manager.
  size_t free_slots() const { return fsm_.free_count(); }

  /// Starts recording which node slots mutations touch (for WAL page
  /// images). Cleared by TakeDirty().
  void EnableDirtyTracking();
  /// The slots touched since the last call, ascending, plus — always,
  /// when any slot is dirty — the implicit meta "page" (root/chain
  /// scalars and free list; serialized by SerializeMeta()).
  std::vector<uint32_t> TakeDirty();

  /// Buffers MutationListener callbacks instead of firing them, until
  /// CommitPendingNotifications() (durable commit) delivers them in
  /// order or DropPendingNotifications() (crashed transaction)
  /// discards them. Non-reentrant; pairs with exactly one of the two.
  void BeginPendingNotifications();
  void CommitPendingNotifications();
  void DropPendingNotifications();

  /// Serialized page image of one node slot (fits a framed 4 KB page;
  /// layout documented in the .cc).
  std::vector<std::byte> SerializeNode(uint32_t slot) const;
  /// Serialized meta page: root, first leaf, size, height, node count,
  /// and the free-space manager's slot list.
  std::vector<std::byte> SerializeMeta() const;
  /// Rebuilds the tree from a meta image and per-slot node images
  /// (recovery). Slots on the meta page's free list may lack an image;
  /// every other slot must have one. Fresh modelled disk pages are
  /// allocated for all slots. Validates invariants before adopting.
  Status RestoreFromImages(
      std::span<const std::byte> meta,
      const std::vector<std::optional<std::vector<std::byte>>>& images);

 private:
  static bool EntryLess(const ColumnEntry& a, const ColumnEntry& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.pid < b.pid;
  }

  /// Read-only access to a node of the current version.
  const Node& node(uint32_t id) const { return *cur_.nodes[id]; }
  /// Mutable access with copy-on-write: clones the node first when a
  /// snapshot may still reference it. Invalidates Node references
  /// obtained earlier — never hold one across a Mutable() call.
  Node* Mutable(uint32_t id);
  uint32_t NewNode(bool leaf);
  void MarkDirty(uint32_t id);
  /// The stream Insert and Erase charge their descents to: the tree's
  /// own, rewound per call so each descent seeks like a fresh stream.
  size_t WriterStream();
  /// Unlinks and frees the emptied leaf at path.back(), cascading into
  /// parents that empty as a result.
  void ReclaimEmpty(const std::vector<uint32_t>& path);
  void NotifyInsert(const ColumnEntry& entry);
  void NotifyErase(const ColumnEntry& entry);

  /// One charged node-page read, with the simulator's standard fault
  /// policy (retry, quarantine).
  static Status ChargeVisit(const Version& v, DiskSimulator* disk,
                            size_t stream, uint32_t node);
  /// Walks from `leaf` to the next non-empty leaf in the given
  /// direction (kInvalid past the chain's end). With a simulator, each
  /// visited leaf page is charged to `stream`, stopping at the first
  /// failed read; with nullptr the walk is free.
  static Result<uint32_t> WalkLeaves(const Version& v, DiskSimulator* disk,
                                     size_t stream, uint32_t leaf,
                                     bool ascending);
  static LeafSpan LeafAt(const Version& v, uint32_t leaf);
  /// Descends to the leaf that would contain `key`, charging each
  /// visited node; records the root-to-leaf path in `path` if non-null.
  /// Fails when any node page on the way is unreadable.
  static Result<uint32_t> DescendToLeaf(const Version& v,
                                        DiskSimulator* disk, size_t stream,
                                        const ColumnEntry& key,
                                        std::vector<uint32_t>* path);
  static Iterator SeekLowerBoundIn(const Version& v, DiskSimulator* disk,
                                   size_t stream, Value value);
  static Iterator SeekBeforeIn(const Version& v, DiskSimulator* disk,
                               size_t stream, Value value);
  static Result<size_t> RankOfIn(const Version& v, DiskSimulator* disk,
                                 size_t stream, Value value);
  static Status CheckInvariantsOf(const Version& v);

  /// Splits the child at path position `depth` after an overflow,
  /// propagating upward; may grow a new root.
  void SplitUpward(std::vector<uint32_t>& path, uint32_t overflowed);

  DiskSimulator* disk_;
  Version cur_;
  /// owned_[i]: cur_.nodes[i] is exclusively ours (created or already
  /// cloned since the last snapshot) and may be mutated in place.
  std::vector<bool> owned_;
  FreeSpaceManager fsm_;
  bool reclaim_ = false;
  bool track_dirty_ = false;
  std::vector<bool> dirty_mark_;
  std::vector<uint32_t> dirty_;
  bool buffer_notifications_ = false;
  /// (is_insert, entry) in mutation order.
  std::vector<std::pair<bool, ColumnEntry>> pending_notifications_;
  MutationListener* listener_ = nullptr;
  static constexpr size_t kNoStream = static_cast<size_t>(-1);
  size_t writer_stream_ = kNoStream;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_BPLUS_TREE_H_
