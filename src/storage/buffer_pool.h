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
// Miss protocol (LOADING): on a miss the fetching thread claims a frame,
// publishes it in the shard's page table in the kLoading state, and *drops
// the shard latch for the disk read*. A second fetcher of the same page
// finds the kLoading entry and waits on the shard's condvar (releasing the
// latch) instead of issuing a duplicate read; fetchers of other pages in the
// shard proceed unimpeded. The loader re-latches to flip the frame to
// kReady and wakes the waiters, who re-check from the top. Page *data*
// reads happen outside the latch: a frame's image pointer is set under the
// latch when its load completes, and the image it points at never changes.
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
// Lock order: any shard latch before DiskManager::mu_. No pool path takes
// the disk latch under a shard latch (every disk call is made with no
// shard latch held); the order stays declared and enforced so that a path
// which ever does cannot invert it. No code path holds two shard latches at
// once — aggregate operations such as cached_pages()/ColdReset() visit
// shards one at a time in increasing shard-index order. The order is
// machine-checked two ways: ACQUIRED_BEFORE on each shard's latch (clang
// -Wthread-safety-beta) and EXCLUDES of the disk latch on every public
// entry point, so calling into the pool while holding the disk latch fails
// to compile under plain -Wthread-safety.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
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
  /// of the consumers is backpressure, not an error: the page is read on
  /// demand later). A failed or cancelled read frees its frame;
  /// a demand Fetch of the page surfaces a persistent error itself.
  void PrefetchBatch(const std::vector<PageId>& pids) EXCLUDES(disk_->mu_);

  /// Empties the pool: the next Fetch of any page is a physical read.
  /// Fails if any page is still pinned or loading. Two shard-ordered passes
  /// (check, then clear), one latch at a time; callers must be at a
  /// quiescent point, as with the monolithic pool.
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
    const char* data = nullptr;  // the disk's image of pid, once kReady
    FrameState state = FrameState::kFree;
    int32_t pin_count = 0;
    // On the shard LRU (pin_count == 0 and kReady); lru_prev/lru_next are
    // the neighbouring frame indexes toward the head (most recent) and the
    // tail (the next victim), -1 at either end.
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
    /// Signaled whenever a kLoading frame resolves (to kReady or back to
    /// the free list on error); waiters re-check the page table.
    std::condition_variable_any cv;
    std::vector<Frame> frames GUARDED_BY(mu);
    std::vector<int32_t> free_frames GUARDED_BY(mu);
    // Page table: frame index per slot, -1 empty, keyed by frames[f].pid.
    // Power-of-two size >= 2 * frames; a page's home slot is the top
    // `slot_bits` bits of its hash.
    std::vector<int32_t> slots GUARDED_BY(mu);
    int slot_bits GUARDED_BY(mu) = 0;  // log2(slots.size())
    size_t cached GUARDED_BY(mu) = 0;  // published (loading or ready) frames
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
  /// (unpublished; the bytes it pointed at are the disk's, so nothing is
  /// written). -1 if every frame is pinned or loading.
  int32_t AcquireFrameLocked(Shard* s) REQUIRES(s->mu);

  /// True while `pid` is published in `s` and its read is in flight.
  static bool PageLoadingLocked(const Shard* s, PageId pid) REQUIRES(s->mu);

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
  // Immutable after the ctor (the Shard contents are latched, the vector
  // itself never changes).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dpcf
