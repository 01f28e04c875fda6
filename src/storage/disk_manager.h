// Simulated disk.
//
// Substitutes for the physical storage stack underneath the buffer pool: it
// holds every segment's pages in memory, and its only job besides byte
// storage is to *classify* each read as sequential or random, which is what
// the paper's evaluation ultimately measures (random fetches are what make a
// mis-costed Index Seek slow). A single read head is modelled: a read is
// sequential iff it targets the page immediately after the previous read in
// the same segment.
//
// Pages are immutable. A loader builds a page's image in memory and hands
// the finished image to AppendPage, which stores its one copy at the
// segment's next page number; nothing changes a stored page afterwards. So
// a read hands out the stored image itself, never a copy.
//
// The kind of read picks the path, and both funnel through ReadImage():
//  * ReadPage(): demand reads, synchronous — classify + charge under the
//    latch, then sleep the simulated latency off-latch. The caller's
//    thread, which needs the page anyway, pays the device time.
//  * SubmitBatch(): readahead, the io_uring-style asynchronous path — the
//    requests land on a bounded submission ring (its own ranked latch,
//    lock_rank::kDiskSubmission) and a small pool of completion workers
//    (DiskManagerOptions::io_threads) performs the prefetch-class charge/
//    sleep and then fires each completion callback off-latch with the
//    image, so no query thread waits on a speculative read.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace dpcf {

/// How a read is charged to IoStats. Demand reads (ReadPage) go through
/// the read-head classifier (sequential vs random); prefetch reads (the
/// submission ring) are charged to the separate prefetch_reads counter and
/// do NOT move the read head, so readahead cannot perturb the
/// classification of the demand stream.
enum class ReadClass { kDemand, kPrefetch };

class Counter;          // obs/metrics_registry.h
class Gauge;            // obs/metrics_registry.h
class LogHistogram;     // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class TraceCollector;   // obs/trace_collector.h
class EventJournal;     // obs/event_journal.h
class CompletionScope;  // disk_manager.cc (friend below)

/// Invoked exactly once per submitted request, off every disk latch, with
/// the read's outcome: the page's stored image once the read is charged and
/// its latency served, an error status if the page was invalid, or
/// Cancelled if CancelPending() (or destruction) retired the request before
/// a worker claimed it — in which case nothing was charged.
using ReadCompletion = std::function<void(const Result<const char*>&)>;

/// One entry on the submission ring.
struct ReadRequest {
  PageId pid;
  ReadCompletion on_complete;
  /// Set by the queue at enqueue time when latency observation is attached
  /// (metrics or journal); 0 means unobserved. The claiming worker stamps
  /// dispatch/complete itself, splitting submit→complete into queue wait
  /// (submit→dispatch) and service time (dispatch→complete). Internal —
  /// leave defaulted.
  int64_t submit_us = 0;
};

struct DiskManagerOptions {
  size_t page_size = kDefaultPageSize;
  /// Completion workers draining the submission ring. Each blocked worker
  /// represents one in-flight device operation, so this is the simulated
  /// device queue depth for latency overlap. Clamped to >= 1.
  int io_threads = 2;
  /// Bounded ring capacity: Add()/SubmitBatch() block (releasing no latch
  /// the caller holds — producers must not submit under a shard latch)
  /// once this many requests are enqueued and unclaimed.
  size_t queue_depth = 256;
};

/// In-memory simulated disk with per-segment page arrays and I/O accounting.
///
/// Thread-safe: a single latch serializes segment metadata and the read-head
/// classification (sequential vs random is inherently a property of the
/// global request order, so it must be decided under the latch), and the
/// IoStats counters are relaxed atomics. A page's bytes need no latch of
/// their own: AppendPage fills the page's allocation before it publishes
/// the pointer under the latch, and every reader obtains the pointer under
/// the same latch, so the hand-off orders the bytes before any read of
/// them. Page allocations are never freed or moved while the disk lives.
/// With morsel-parallel scans the interleaving of workers means fewer reads
/// classify as sequential than in a serial scan — exactly as on real
/// hardware with one arm.
///
/// The submission ring has its own latch (submit_mu_, rank kDiskSubmission
/// = 250 > kDisk): a completion worker never holds the ring latch while it
/// performs the read (it pops, releases, then takes mu_ inside
/// ReadImage), and callbacks fire with no disk latch held so they may
/// take buffer-pool shard latches (rank 100) without inverting the rank
/// order on a fresh thread.
class DiskManager {
 public:
  explicit DiskManager(size_t page_size = kDefaultPageSize);
  explicit DiskManager(const DiskManagerOptions& options);
  ~DiskManager();

  size_t page_size() const { return page_size_; }
  int io_threads() const { return io_threads_; }

  /// Creates an empty segment and returns its id.
  SegmentId CreateSegment(std::string name) EXCLUDES(mu_);

  /// Stores a copy of the finished page image `image` (page_size bytes) as
  /// the segment's next page and returns its page number, charging one
  /// IoStats::physical_writes. The loaders' only write: HeapFile and Btree
  /// append each page once its image is final, and the page never changes
  /// afterwards. OutOfRange if the segment does not exist.
  Result<PageNo> AppendPage(SegmentId segment, const char* image)
      EXCLUDES(mu_);

  /// Number of pages currently allocated in the segment.
  uint32_t SegmentPageCount(SegmentId segment) const EXCLUDES(mu_);

  const std::string& SegmentName(SegmentId segment) const EXCLUDES(mu_);

  /// Demand read of a page, synchronously on the calling thread, charged to
  /// IoStats as sequential or random per the read-head model. Returns the
  /// page's stored image (page_size bytes, valid for the disk's lifetime).
  /// The simulated device latency (if any) is slept outside the latch so
  /// concurrent reads overlap.
  Result<const char*> ReadPage(PageId pid) EXCLUDES(mu_);

  /// Enqueues a batch of prefetch reads in one ring latch round-trip,
  /// preserving order (the ring is FIFO; with io_threads == 1 completions
  /// are FIFO too). Each request's callback fires from a completion worker
  /// with the page's image (or the error); each read is charged to
  /// IoStats::prefetch_reads. Blocks only while the ring is full.
  void SubmitBatch(std::vector<ReadRequest> batch)
      EXCLUDES(submit_mu_, mu_);

  /// Retires every request still waiting on the ring (requests a worker
  /// has already claimed are not interrupted) and fires their callbacks
  /// with Status::Cancelled, off-latch, on the calling thread. Used by
  /// BufferPool::ColdReset so a quiescing pool does not wait out the
  /// simulated latency of a speculative readahead backlog.
  void CancelPending() EXCLUDES(submit_mu_, mu_);

  /// Blocks until the ring is empty and no claimed request is still being
  /// serviced — i.e. every completion callback submitted so far has
  /// returned. The pool drains before destruction and before ColdReset so
  /// no callback can touch a frame after the pool mutates it.
  void DrainSubmissions() EXCLUDES(submit_mu_, mu_);

  /// Waiting + claimed-but-incomplete request count (exact only at
  /// quiescent points; tests use it, the gauge mirrors the waiting part).
  size_t pending_submissions() const EXCLUDES(submit_mu_);

  /// Batches several Add() calls into a single acquisition of the ring
  /// latch; workers are woken once, at scope exit. Named-object RAII (the
  /// [[nodiscard]] constructor rejects a discarded temporary, which would
  /// enqueue nothing and release the latch immediately).
  class SCOPED_CAPABILITY SubmissionGuard {
   public:
    [[nodiscard]] explicit SubmissionGuard(DiskManager* disk)
        ACQUIRE(disk->submit_mu_);
    SubmissionGuard(const SubmissionGuard&) = delete;
    SubmissionGuard& operator=(const SubmissionGuard&) = delete;
    ~SubmissionGuard() RELEASE();

    /// Enqueues one request. Blocks (releasing the ring latch inside the
    /// wait) while the ring is at queue_depth. Runs under submit_mu_ (held
    /// for the guard's whole lifetime), but clang cannot equate the
    /// aliased capability `disk_->submit_mu_` with the mutex the
    /// constructor acquired at the call site, so the analysis is opted
    /// out here rather than annotated with an unprovable REQUIRES.
    void Add(ReadRequest req) NO_THREAD_SAFETY_ANALYSIS;

   private:
    DiskManager* const disk_;
    size_t added_ = 0;
  };

  /// Direct read-only pointer to page bytes, counted in
  /// IoStats::raw_page_reads and charged no simulated time. For offline
  /// readers (statistics and index builds, exact oracles) and tests;
  /// query execution must go through the BufferPool so physical I/O is
  /// charged.
  const char* RawPage(PageId pid) const EXCLUDES(mu_);

  IoStats* io_stats() { return &io_stats_; }
  const IoStats& io_stats() const { return io_stats_; }

  /// Forgets the read-head position (e.g. between measured runs) so the
  /// first read of the next run is classified random, as on a cold device.
  void ResetReadHead() EXCLUDES(mu_);

  /// Names this disk's latch in annotations of higher layers (the buffer
  /// pool declares its public API EXCLUDES this latch, which is what makes
  /// a disk-before-pool acquisition a compile error at the call site).
  Mutex* latch() const RETURN_CAPABILITY(mu_) { return &mu_; }

  /// The submission-ring latch, for rank assertions in tests.
  Mutex* submission_latch() const RETURN_CAPABILITY(submit_mu_) {
    return &submit_mu_;
  }

  /// Simulated per-read device latency, slept outside any latch so reads
  /// issued by different threads overlap (as on a disk with queue depth).
  /// Contention benches and tests use this to make miss-path latch holds
  /// measurable; 0 (the default) disables the sleep entirely.
  void set_read_latency_us(int64_t us);
  int64_t read_latency_us() const {
    return read_latency_us_.load(std::memory_order_relaxed);
  }

  /// Resolves this disk's metric handles (reads by class, writes, the
  /// latency-knob gauge, submission-ring depth/in-flight gauges, the
  /// ring's queue-wait / service-time / submit→complete latency
  /// histograms and the backpressure-stall counter) from `registry`,
  /// wires `trace` for ring read spans and `journal` for ring events.
  /// Call once at a quiescent point (Database's constructor does); null
  /// detaches nothing and is ignored.
  void AttachMetrics(MetricsRegistry* registry,
                     TraceCollector* trace = nullptr,
                     EventJournal* journal = nullptr) EXCLUDES(mu_);

 private:
  friend class BufferPool;  // names mu_ in its lock-order annotations
  friend class SubmissionGuard;
  friend class CompletionScope;  // in_flight_ retirement (disk_manager.cc)

  struct Segment {
    std::string name;
    std::vector<std::unique_ptr<char[]>> pages;
  };

  bool ValidPage(PageId pid) const REQUIRES(mu_);

  /// The one read implementation both paths share: classify + charge under
  /// mu_, then sleep the simulated latency off-latch and return the stored
  /// image. Exactly one page image leaves the disk per OK return
  /// (dpcf-charge-conservation lists this as a page reader). A sequential
  /// demand read also warms the next page's image in the CPU caches: a
  /// cache hint, not a read, so nothing is charged for it.
  Result<const char*> ReadImage(PageId pid, ReadClass cls) EXCLUDES(mu_);

  /// Spawns the io_threads_ completion workers on first use, so workloads
  /// without readahead never pay the threads.
  void EnsureWorkersLocked() REQUIRES(submit_mu_);

  /// Completion-worker body: pop under submit_mu_, release, read via
  /// ReadImage, fire the callback off-latch, retire the slot.
  void IoWorkerLoop();

  size_t page_size_;
  int io_threads_;
  size_t queue_depth_;
  // Rank kDisk: always innermost of the storage pair (pool shard -> disk).
  mutable Mutex mu_{lock_rank::kDisk};
  std::vector<Segment> segments_ GUARDED_BY(mu_);
  // Relaxed atomics, charged without the latch; mutable so the const
  // RawPage can still account its page hand-outs.
  mutable IoStats io_stats_;
  PageId last_read_ GUARDED_BY(mu_);  // invalid when head position unknown
  std::atomic<int64_t> read_latency_us_{0};  // its own synchronization

  // --- Submission ring (readahead path) -----------------------------
  // Rank kDiskSubmission > kDisk: a worker that popped a request takes
  // mu_ only after releasing submit_mu_, and producers may submit while
  // holding nothing (or a shard latch, rank 100 < 250).
  mutable Mutex submit_mu_{lock_rank::kDiskSubmission};
  /// Signaled on enqueue (workers), dequeue (producers blocked on a full
  /// ring) and retirement (DrainSubmissions waiters).
  mutable std::condition_variable_any submit_cv_;
  std::deque<ReadRequest> queue_ GUARDED_BY(submit_mu_);
  size_t in_flight_ GUARDED_BY(submit_mu_) = 0;  // claimed, not yet retired
  bool stop_workers_ GUARDED_BY(submit_mu_) = false;
  bool workers_started_ GUARDED_BY(submit_mu_) = false;
  // Mutated only by EnsureWorkersLocked (under submit_mu_) and joined in
  // the destructor after the workers have been stopped; no concurrent
  // access in between, so no GUARDED_BY.
  std::vector<std::thread> workers_;

  // Metric handles, null until AttachMetrics (set once at a quiescent
  // point; the metrics themselves are relaxed atomics — no GUARDED_BY).
  Counter* m_reads_seq_ = nullptr;
  Counter* m_reads_rand_ = nullptr;
  Counter* m_reads_prefetch_ = nullptr;
  Counter* m_writes_ = nullptr;
  Gauge* m_latency_us_ = nullptr;
  Counter* m_submitted_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_backpressure_stalls_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Gauge* m_in_flight_ = nullptr;
  // The ring carries prefetch reads only; the series keep their
  // class="prefetch" label.
  LogHistogram* m_queue_wait_us_ = nullptr;
  LogHistogram* m_service_time_us_ = nullptr;
  /// True once any ring-latency observer (histograms or journal) is
  /// attached: gates the submit/dispatch/complete clock reads.
  bool ring_latency_observed_ = false;
  TraceCollector* trace_ = nullptr;
  EventJournal* journal_ = nullptr;
};

}  // namespace dpcf
