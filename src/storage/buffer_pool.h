// Sharded LRU buffer pool over the simulated disk.
//
// Every page access during query execution goes through Fetch(), which
// charges a logical read and, on a miss, a physical read; this is exactly the
// distinction the paper's DPC parameter drives ("each distinct page involves
// a new logical I/O and, if absent from the buffer pool, a physical I/O").
// ColdReset() empties the pool between measured runs to reproduce the
// paper's cold-cache methodology.
//
// Sharding: frames are partitioned into N shards (N a power of two), and a
// page belongs to shard PageIdHash(pid) & (N-1). Each shard has its own
// latch, page table, free list and LRU list, so concurrent fetches of pages
// in different shards never touch the same latch.
//
// Miss protocol (LOADING): on a miss the fetching thread claims a frame,
// publishes it in the shard's page table in the kLoading state, and *drops
// the shard latch for the disk read*. A second fetcher of the same page
// finds the kLoading entry and waits on the shard's condvar (releasing the
// latch) instead of issuing a duplicate read; fetchers of other pages in the
// shard proceed unimpeded. The loader re-latches to flip the frame to
// kReady and wakes the waiters, who re-check from the top. Page *data*
// reads happen outside the latch, protected by the pin: a pinned or loading
// frame is never a victim, so its bytes are stable while any PageGuard is
// alive. Dirty-victim writeback stays *under* the shard latch — dropping it
// there would let a concurrent miss of the victim page read stale bytes
// from the disk mid-writeback.
//
// The kind of read picks the path (DESIGN.md section 14). A demand miss is
// read inline by the fetching thread: its caller blocks on the page either
// way, so handing the read to another thread would only add a hand-off.
// Readahead is read by nobody in particular: PrefetchBatch() publishes a
// kLoading frame per page and hands the whole batch to the disk's
// submission ring in one SubmitBatch; the completions (on disk io-threads)
// resolve each frame to ready-unpinned-MRU and wake the shard's waiters, so
// a demand fetch that arrives early waits behind the kLoading frame exactly
// as it would behind another fetcher's inline read.
//
// Accounting is exact, not approximate: logical_reads is charged only when
// a fetch succeeds (hit, wait-behind-loader, or completed load), so
//   logical_reads == buffer_hits + physical_reads()
// holds under any interleaving, including ResourceExhausted failures.
//
// Lock order: any shard latch before DiskManager::mu_ (dirty-victim
// writeback and flush call into the disk below one shard latch; no code
// path holds two shard latches at once — aggregate operations such as
// cached_pages()/ColdReset()/FlushAll() visit shards one at a time in
// increasing shard-index order). The order is machine-checked two ways:
// ACQUIRED_BEFORE on each shard's latch (clang -Wthread-safety-beta) and
// EXCLUDES of the disk latch on every public entry point, so calling into
// the pool while holding the disk latch fails to compile under plain
// -Wthread-safety.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace dpcf {

class BufferPool;
class Counter;          // obs/metrics_registry.h
class LogHistogram;     // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class TraceCollector;   // obs/trace_collector.h
class EventJournal;     // obs/event_journal.h

/// RAII pin on a buffer-pool frame. Movable, not copyable; unpins on
/// destruction. data() is valid while the guard is alive.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t shard, int32_t frame, char* data);
  PageGuard(PageGuard&& o) noexcept;
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  const char* data() const { return data_; }

  /// Grants write access and marks the frame dirty (written back to the
  /// disk manager on eviction or FlushAll()).
  char* mutable_data();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  int32_t frame_ = -1;
  char* data_ = nullptr;
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
  /// `capacity_pages` frames are preallocated eagerly and split as evenly
  /// as possible across the shards (earlier shards get the remainder).
  BufferPool(DiskManager* disk, size_t capacity_pages,
             BufferPoolOptions options = BufferPoolOptions{});

  /// Cancels and drains the submission ring first: a readahead completion
  /// callback must never run against a destroyed pool.
  ~BufferPool();

  /// Pins the page, reading it from disk on the calling thread on a miss.
  /// Fails with ResourceExhausted if every frame of the page's shard is
  /// pinned or loading. Nothing is charged to IoStats on failure.
  Result<PageGuard> Fetch(PageId pid) EXCLUDES(disk_->mu_);

  /// Readahead: publishes a kLoading frame per still-uncached page and
  /// submits the whole batch through the disk's submission ring in one
  /// SubmitBatch call, without waiting for any of it. Each completed load
  /// is left unpinned and most recently used, so a later Fetch is a hit,
  /// and is charged to IoStats::prefetch_reads instead of a physical read
  /// (it never moves the disk read head). A page already cached or loading
  /// is skipped; a shard with no evictable frame skips the page and
  /// charges IoStats::prefetch_rejected (readahead running too far ahead
  /// of the consumers is backpressure, not an error — the adaptive window
  /// narrows on the counter). A failed or cancelled read frees its frame;
  /// a demand Fetch of the page surfaces a persistent error itself.
  void PrefetchBatch(const std::vector<PageId>& pids) EXCLUDES(disk_->mu_);

  /// Allocates a fresh zeroed page in `segment`, pins it, and returns the
  /// guard together with its id via `out_pid`. No physical read is charged
  /// (the page had no prior contents); the write is charged on eviction.
  Result<PageGuard> NewPage(SegmentId segment, PageId* out_pid)
      EXCLUDES(disk_->mu_);

  /// Writes back all dirty frames (keeps them cached). Visits shards one at
  /// a time in increasing index order; never holds two shard latches.
  Status FlushAll() EXCLUDES(disk_->mu_);

  /// Writes back dirty frames and empties the pool: the next Fetch of any
  /// page is a physical read. Fails if any page is still pinned or loading.
  /// Two shard-ordered passes (check, then flush+clear), one latch at a
  /// time; callers must be at a quiescent point, as with the monolithic
  /// pool.
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

  /// Resolves this pool's metric handles (per-shard hits / misses /
  /// loading-waits, pool-wide logical reads / prefetch hits, miss-read
  /// latency histogram) from `registry`, wires `trace` for miss and
  /// prefetch spans and `journal` for loading-wait / eviction events. Any
  /// argument may be null. Call once, at a quiescent point (Database's
  /// constructor does); publishing afterwards is relaxed-atomic or
  /// lock-free only and adds nothing to the unattached hot path.
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

  enum class FrameState : uint8_t {
    kFree,     // on the shard free list; pid meaningless
    kLoading,  // published in the page table; disk read in flight
    kReady,    // contents valid
  };

  struct Frame {
    PageId pid;
    std::unique_ptr<char[]> data;
    FrameState state = FrameState::kFree;
    int32_t pin_count = 0;
    bool dirty = false;
    // Position in the shard lru when pin_count == 0; lru.end() otherwise.
    std::list<int32_t>::iterator lru_pos;
    bool in_lru = false;
    // Loaded by a kPrefetch read and not yet demanded: the first demand hit
    // charges IoStats::prefetch_hits and clears this (so one prefetched
    // load is one potential hit). Cleared whenever the frame is reclaimed.
    bool prefetched = false;
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
    /// Signaled whenever a kLoading frame resolves (to kReady or back to
    /// the free list on error); waiters re-check the page table.
    std::condition_variable_any cv;
    std::vector<Frame> frames GUARDED_BY(mu);
    std::vector<int32_t> free_frames GUARDED_BY(mu);
    std::list<int32_t> lru GUARDED_BY(mu);  // front = most recent
    std::unordered_map<PageId, int32_t, PageIdHash> table GUARDED_BY(mu);
    // Metric handles, null until AttachObservability. Set once at a
    // quiescent point; the Counter itself is a relaxed atomic, so no
    // GUARDED_BY (same contract as IoStats::AtomicCounter).
    Counter* m_hits = nullptr;
    Counter* m_misses = nullptr;
    Counter* m_loading_waits = nullptr;
  };

  /// Returns a usable frame index in `s`: a free frame, or the LRU victim
  /// (written back under the latch if dirty). -1 if every frame is pinned
  /// or loading.
  int32_t AcquireFrameLocked(Shard* s, Status* status) REQUIRES(s->mu);

  /// Writes back all dirty kReady frames of `s`.
  Status FlushShardLocked(Shard* s) REQUIRES(s->mu);

  /// True while `pid` is published in `s` and its read is in flight.
  static bool PageLoadingLocked(const Shard* s, PageId pid) REQUIRES(s->mu);

  void Unpin(uint32_t shard, int32_t frame);
  void MarkDirty(uint32_t shard, int32_t frame);

  static size_t PickShardCount(size_t capacity, size_t requested);

  DiskManager* disk_;
  size_t capacity_pages_;  // == sum of shard frame counts; ctor-immutable
  // Pool-wide observability handles; null until AttachObservability.
  Counter* m_logical_reads_ = nullptr;
  Counter* m_prefetch_hits_ = nullptr;
  LogHistogram* m_miss_read_us_ = nullptr;
  TraceCollector* trace_ = nullptr;
  EventJournal* journal_ = nullptr;
  // Immutable after the ctor (the Shard contents are latched, the vector
  // itself never changes).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dpcf
