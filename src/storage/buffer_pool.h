// Sharded LRU buffer pool over the simulated disk: a residency model.
//
// Every page access during query execution goes through Fetch(), which
// charges a logical read and, on a miss, a physical read; this is exactly the
// distinction the paper's DPC parameter drives ("each distinct page involves
// a new logical I/O and, if absent from the buffer pool, a physical I/O").
// ColdReset() empties the pool between measured runs to reproduce the
// paper's cold-cache methodology. The pool owns no page bytes: pages are
// immutable once their loader (HeapFile, Btree) has appended them to the
// disk, so a frame records which page is resident and points at the disk's
// own image of it, which its load returned. An evicted frame is simply
// reused, and a reset only forgets.
//
// Sharding: frames are partitioned into N shards (N a power of two), and a
// page belongs to shard PageIdHash(pid) & (N-1). Each shard has its own
// latch, page table, free list and LRU list, so concurrent fetches of pages
// in different shards never touch the same latch.
//
// Shard layout is flat (DESIGN.md section 10): the page table is one
// open-addressed slot array of frame indexes, probed linearly from the
// *high* bits of PageIdHash (the low bits chose the shard and are equal
// across it), with backward-shift deletion; the LRU is a doubly linked
// list threaded through the frames by index. So a hit, an unpin, a miss
// that evicts and a ColdReset allocate nothing, and ColdReset walks the
// frames, O(capacity), not a node per cached page.
//
// Miss protocol (DESIGN.md section 10): Fetch() and PrefetchBatch() share
// one load step. Under the shard latch it checks that a frame can be
// claimed, reads the page through the disk — the disk classifies and
// charges the read and stamps it with the time the simulated device
// finishes it, but sleeps nothing — and only then claims the frame
// (evicting the LRU victim if it must) and publishes it with that due
// time: pinned for a demand fetch, unpinned, most recently used and marked
// prefetched for readahead.
// Any fetch that finds a frame not yet due pins it, drops the latch and
// sleeps until the due time. For the loader that sleep is its I/O wait; for
// every other fetcher, a demand fetch of a page readahead scheduled
// included, it is a loading wait. So a page is read once however many
// threads ask for it, nobody waits on a latch for the device, and a read
// that is due by the time its page is fetched costs no wait at all.
//
// Accounting is exact, not approximate: logical_reads is charged only when
// a fetch succeeds (hit, wait-behind-loader, or completed load), so
//   logical_reads == buffer_hits + physical_reads()
// holds under any interleaving, including ResourceExhausted failures. The
// pool counts its fetchers' waits itself (stalls()), as the disk counts
// IoStats: every demand miss is one I/O wait, every fetch that waits out a
// read not yet due one loading wait.
//
// Lock order: any shard latch before DiskManager::mu_; every load takes the
// disk latch under its shard latch. No code path holds two shard latches at
// once — aggregate operations such as cached_pages()/ColdReset() visit
// shards one at a time in increasing shard-index order. The order is
// machine-checked two ways: ACQUIRED_BEFORE on each shard's latch (clang
// -Wthread-safety-beta) and EXCLUDES of the disk latch on every public
// entry point, so calling into the pool while holding the disk latch fails
// to compile under plain -Wthread-safety.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace dpcf {

class BufferPool;
class Counter;          // obs/metrics_registry.h
class LogHistogram;     // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class TraceCollector;   // obs/trace_collector.h
class EventJournal;     // obs/event_journal.h

/// RAII pin on a buffer-pool frame. Movable, not copyable; unpins on
/// destruction. data() is read-only and valid while the guard is alive.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t shard, int32_t frame,
            const char* data);
  PageGuard(PageGuard&& o) noexcept;
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  const char* data() const { return data_; }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  int32_t frame_ = -1;
  const char* data_ = nullptr;
};

struct BufferPoolOptions {
  /// Number of shards; rounded down to a power of two and clamped to
  /// [1, capacity]. 0 picks a default that scales with capacity (1 shard
  /// for tiny pools, up to 8) so small single-threaded pools behave exactly
  /// like the historical monolithic pool.
  size_t num_shards = 0;
};

/// Fixed-capacity sharded page cache with per-shard LRU replacement and pin
/// counts.
class BufferPool {
 public:
  /// `capacity_pages` frames are set up front and split as evenly as
  /// possible across the shards (earlier shards get the remainder).
  BufferPool(DiskManager* disk, size_t capacity_pages,
             BufferPoolOptions options = BufferPoolOptions{});

  /// Pins the page, reading it from disk on a miss, and returns once the
  /// page's read is due (the calling thread sleeps until then, off the
  /// latch). Fails with ResourceExhausted if every frame of the page's
  /// shard is pinned. Nothing is charged to IoStats on failure.
  Result<PageGuard> Fetch(PageId pid) EXCLUDES(disk_->mu_);

  /// Readahead: schedules a prefetch read of each still-uncached page on
  /// the disk's device channels, without waiting for any of it. Each frame
  /// is published at once, unpinned and most recently used, so a later
  /// Fetch is a hit (which waits out the read if it is not yet due); the
  /// read is charged to IoStats::prefetch_reads when it is scheduled,
  /// instead of a physical read (it never moves the disk read head). A page
  /// already cached is skipped; a shard with no evictable frame skips the
  /// page and charges IoStats::prefetch_rejected (readahead running too far
  /// ahead of the consumers is not an error: the page is read on demand
  /// later). A failed read publishes nothing; a demand Fetch of the page
  /// surfaces a persistent error itself.
  void PrefetchBatch(const std::vector<PageId>& pids) EXCLUDES(disk_->mu_);

  /// Empties the pool: the next Fetch of any page is a physical read.
  /// Fails if any page is still pinned. Reads not yet due are forgotten
  /// with their frames, not waited for, and the disk's device is made cold
  /// (DiskManager::ResetReadHead). Two shard-ordered passes (check, then
  /// clear), one latch at a time; callers must be at a quiescent point, as
  /// with the monolithic pool.
  Status ColdReset() EXCLUDES(disk_->mu_);

  size_t capacity() const { return capacity_pages_; }
  size_t num_shards() const { return shards_.size(); }
  /// Which shard `pid` lives in (stable for the pool's lifetime).
  size_t shard_index(PageId pid) const {
    return PageIdHash{}(pid) & (shards_.size() - 1);
  }
  /// Frame count of shard `s` (they differ by at most one).
  size_t shard_capacity(size_t s) const;

  /// Cached-page count, summed shard by shard (one latch at a time). Exact
  /// only at quiescent points, like every cross-shard aggregate.
  size_t cached_pages() const EXCLUDES(disk_->mu_);

  DiskManager* disk() const { return disk_; }

  /// Waits of this pool's fetchers, cumulative for the pool's lifetime;
  /// callers take before/after deltas at quiescent points.
  const StallStats& stalls() const { return stalls_; }

  /// Resolves this pool's metric handles (per-shard hits / misses /
  /// loading-waits, pool-wide logical reads / prefetch hits, miss-read
  /// latency histogram) from `registry`, wires `trace` for miss spans and
  /// prefetch-batch instants and `journal` for loading-wait / eviction
  /// events. Any argument may be null. Call once, at a quiescent point
  /// (Database's constructor does); publishing afterwards is relaxed-atomic
  /// or lock-free only and adds nothing to the unattached hot path.
  void AttachObservability(MetricsRegistry* registry, TraceCollector* trace,
                           EventJournal* journal = nullptr);

  /// The disk latch as this pool's annotations spell it. TSA matches
  /// capability *expressions*, so code that locks `disk()->latch()` under
  /// a different base object would not collide with the `disk_->mu_` in
  /// Fetch's EXCLUDES clause; locking through this accessor does (the
  /// negative-compile lock-order fixture relies on it).
  Mutex* disk_latch() const RETURN_CAPABILITY(disk_->mu_) {
    return disk_->latch();
  }

 private:
  friend class PageGuard;

  // A frame is free (on the shard free list; pid meaningless) or published
  // in the shard's page table under pid.
  struct Frame {
    PageId pid;
    const char* data = nullptr;  // the disk's image of pid
    // When the simulated device finishes pid's read (DiskManager::NowUs
    // microseconds); no fetch hands the page out before then. 0 once a
    // fetch has seen it pass, or when the read had no latency.
    int64_t due_us = 0;
    int32_t pin_count = 0;
    // On the shard LRU (published and pin_count == 0); lru_prev/lru_next
    // are the neighbouring frame indexes toward the head (most recent) and
    // the tail (the next victim), -1 at either end.
    bool in_lru = false;
    // Loaded by a kPrefetch read and not yet demanded: the first demand hit
    // charges IoStats::prefetch_hits and clears this (so one prefetched
    // load is one potential hit). Cleared whenever the frame is reclaimed.
    bool prefetched = false;
    int32_t lru_prev = -1;
    int32_t lru_next = -1;
  };

  /// One latch domain. `disk` duplicates the pool's pointer so the
  /// ACQUIRED_BEFORE edge can be spelled per shard (TSA attributes resolve
  /// member expressions; Shard is a nested class of DiskManager's friend,
  /// so naming disk->mu_ here is well-formed).
  struct Shard {
    explicit Shard(DiskManager* d)
        : disk(d), mu(lock_rank::kBufferPoolShard) {}
    DiskManager* const disk;
    // Rank kBufferPoolShard < kDisk: the runtime mirror of the
    // ACQUIRED_BEFORE edge (enforced under DPCF_LOCK_RANK on any compiler;
    // the shared shard rank also aborts if two shard latches ever nest).
    mutable Mutex mu ACQUIRED_BEFORE(disk->mu_);
    std::vector<Frame> frames GUARDED_BY(mu);
    std::vector<int32_t> free_frames GUARDED_BY(mu);
    // Page table: frame index per slot, -1 empty, keyed by frames[f].pid.
    // Power-of-two size >= 2 * frames; a page's home slot is the top
    // `slot_bits` bits of its hash.
    std::vector<int32_t> slots GUARDED_BY(mu);
    int slot_bits GUARDED_BY(mu) = 0;  // log2(slots.size())
    size_t cached GUARDED_BY(mu) = 0;  // published frames
    int32_t lru_head GUARDED_BY(mu) = -1;  // most recently unpinned
    int32_t lru_tail GUARDED_BY(mu) = -1;  // the next victim

    /// Frame holding `pid`, or -1.
    int32_t Find(PageId pid) const REQUIRES(mu);
    /// Publishes frame `f` under frames[f].pid (which must be absent).
    void Insert(int32_t f) REQUIRES(mu);
    /// Unpublishes `pid` (which must be present), closing the probe run's
    /// gap by shifting later entries back toward their home slots.
    void Erase(PageId pid) REQUIRES(mu);
    void LruPushFront(int32_t f) REQUIRES(mu);
    void LruRemove(int32_t f) REQUIRES(mu);
    // Metric handles, null until AttachObservability. Set once at a
    // quiescent point; the Counter itself is a relaxed atomic, so no
    // GUARDED_BY (same contract as IoStats::AtomicCounter).
    Counter* m_hits = nullptr;
    Counter* m_misses = nullptr;
    Counter* m_loading_waits = nullptr;
  };

  /// Returns a usable frame index in `s`: a free frame, or the LRU victim
  /// (unpublished, and journaled as an eviction; the bytes it pointed at
  /// are the disk's, so nothing is written). The caller has checked that
  /// one of the two exists.
  int32_t AcquireFrameLocked(Shard* s) REQUIRES(s->mu);

  /// The one load step of Fetch and PrefetchBatch: checks that a frame in
  /// `s` can be claimed for `pid` (which must be absent), reads the page
  /// through the disk under the shard latch, then claims the frame and
  /// publishes it with the read's due time — pinned for a kDemand read,
  /// unpinned, most recently used and marked prefetched for a kPrefetch
  /// one. ResourceExhausted if no frame can be claimed, the read's error if
  /// it fails; either way nothing is evicted, published or charged.
  Result<int32_t> LoadLocked(Shard* s, PageId pid, ReadClass cls)
      REQUIRES(s->mu);

  void Unpin(uint32_t shard, int32_t frame);

  static size_t PickShardCount(size_t capacity, size_t requested);

  DiskManager* disk_;
  size_t capacity_pages_;  // == sum of shard frame counts; ctor-immutable
  // Pool-wide observability handles; null until AttachObservability.
  Counter* m_logical_reads_ = nullptr;
  Counter* m_prefetch_hits_ = nullptr;
  LogHistogram* m_miss_read_us_ = nullptr;
  TraceCollector* trace_ = nullptr;
  EventJournal* journal_ = nullptr;
  // Relaxed atomics, counted without a latch (like DiskManager's IoStats).
  StallStats stalls_;
  // Immutable after the ctor (the Shard contents are latched, the vector
  // itself never changes).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dpcf
