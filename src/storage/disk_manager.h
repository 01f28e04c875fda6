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
// Device time (DESIGN.md section 14): a read classifies and charges at once
// and never sleeps. It returns the image with its *due time*, the
// steady-clock microsecond at which the simulated device finishes it, and
// the reader waits until then (BufferPool does, off its latch):
//  * a demand read is due at now + latency;
//  * a prefetch takes the earliest-free of io_threads device channels and
//    is due at max(now, channel free) + latency, so readahead has a fixed
//    device queue depth without a thread;
//  * with no latency the due time is 0 and no clock is read.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace dpcf {

/// How a read is charged to IoStats. Demand reads go through the read-head
/// classifier (sequential vs random); prefetch reads (readahead) are charged
/// to the separate prefetch_reads counter, queue on the device channels and
/// do NOT move the read head, so readahead cannot perturb the classification
/// of the demand stream.
enum class ReadClass { kDemand, kPrefetch };

class Counter;          // obs/metrics_registry.h
class Gauge;            // obs/metrics_registry.h
class LogHistogram;     // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class EventJournal;     // obs/event_journal.h

/// One read: the page's stored image (page_size bytes, valid for the disk's
/// lifetime) and the steady-clock microsecond (DiskManager::NowUs) at which
/// the simulated device finishes it. The reader must not use the image
/// before then; 0 means there is nothing to wait for.
struct PageRead {
  const char* image = nullptr;
  int64_t due_us = 0;
};

struct DiskManagerOptions {
  size_t page_size = kDefaultPageSize;
  /// Device channels readahead spreads over: the simulated device queue
  /// depth for prefetch reads. Clamped to >= 1.
  int io_threads = 2;
};

/// In-memory simulated disk with per-segment page arrays and I/O accounting.
///
/// Thread-safe: a single latch serializes segment metadata, the read-head
/// classification (sequential vs random is inherently a property of the
/// global request order, so it must be decided under the latch) and the
/// device channels, and the IoStats counters are relaxed atomics. A page's
/// bytes need no latch of their own: AppendPage fills the page's allocation
/// before it publishes the pointer under the latch, and every reader
/// obtains the pointer under the same latch, so the hand-off orders the
/// bytes before any read of them. Page allocations are never freed or moved
/// while the disk lives. With morsel-parallel scans the interleaving of
/// workers means fewer reads classify as sequential than in a serial scan —
/// exactly as on real hardware with one arm.
///
/// The latch is the innermost storage latch (lock_rank::kDisk): the buffer
/// pool reads with its shard latch held, and nothing is called with the
/// disk latch held.
class DiskManager {
 public:
  explicit DiskManager(size_t page_size = kDefaultPageSize);
  explicit DiskManager(const DiskManagerOptions& options);

  size_t page_size() const { return page_size_; }

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

  /// The disk's one read. Charges it by class under the latch — a demand
  /// read as sequential or random per the read-head model, a prefetch as
  /// IoStats::prefetch_reads on the earliest-free device channel — and
  /// returns the stored image with its due time, without sleeping. Exactly
  /// one page image leaves the disk per OK return (dpcf-charge-conservation
  /// lists this as a page reader). A sequential demand read also warms the
  /// next page's image in the CPU caches: a cache hint, not a read, so
  /// nothing is charged for it. OutOfRange (and no charge) for an unknown
  /// page.
  Result<PageRead> ReadImage(PageId pid, ReadClass cls) EXCLUDES(mu_);

  /// Steady-clock microseconds: the time base of PageRead::due_us.
  static int64_t NowUs();

  /// Blocks the calling thread until NowUs() reaches `due_us`; returns at
  /// once for 0 or a time already past, and never before the due time.
  /// On Linux the first call with a non-zero due time sets the calling
  /// thread's timer slack to 1 ns (prctl PR_SET_TIMERSLACK), so a sleep
  /// ends within the host's wake-up latency of its due time instead of up
  /// to the default 50 µs slack later. The thread keeps that slack, and
  /// threads it starts afterwards inherit it; if the call is refused the
  /// wait is as precise as the default slack allows. Elsewhere the wait
  /// is a plain sleep.
  static void WaitUntil(int64_t due_us);

  /// Direct read-only pointer to page bytes, counted in
  /// IoStats::raw_page_reads and charged no simulated time. For offline
  /// readers (statistics and index builds, exact oracles) and tests;
  /// query execution must go through the BufferPool so physical I/O is
  /// charged.
  const char* RawPage(PageId pid) const EXCLUDES(mu_);

  IoStats* io_stats() { return &io_stats_; }
  const IoStats& io_stats() const { return io_stats_; }

  /// Makes the device cold between measured runs: forgets the read-head
  /// position, so the first read of the next run is classified random, and
  /// idles the device channels, so the next run's readahead does not queue
  /// behind reads scheduled for pages a reset pool has forgotten.
  void ResetReadHead() EXCLUDES(mu_);

  /// Names this disk's latch in annotations of higher layers (the buffer
  /// pool declares its public API EXCLUDES this latch, which is what makes
  /// a disk-before-pool acquisition a compile error at the call site).
  Mutex* latch() const RETURN_CAPABILITY(mu_) { return &mu_; }

  /// Simulated per-read device latency, waited out by the reader (see
  /// PageRead) with no latch held, so reads issued by different threads
  /// overlap. 0 (the default) means reads are due at once.
  void set_read_latency_us(int64_t us);

  /// Resolves this disk's metric handles (reads by class, writes, the
  /// latency-knob gauge, and the prefetch class's queue-wait and
  /// service-time histograms) from `registry`, and wires `journal` for the
  /// ring_submit event a scheduled prefetch records. Call once at a
  /// quiescent point (Database's constructor does); null detaches nothing
  /// and is ignored.
  void AttachMetrics(MetricsRegistry* registry,
                     EventJournal* journal = nullptr) EXCLUDES(mu_);

 private:
  friend class BufferPool;  // names mu_ in its lock-order annotations

  struct Segment {
    std::string name;
    std::vector<std::unique_ptr<char[]>> pages;
  };

  bool ValidPage(PageId pid) const REQUIRES(mu_);

  size_t page_size_;
  // Rank kDisk: always innermost of the storage pair (pool shard -> disk).
  mutable Mutex mu_{lock_rank::kDisk};
  std::vector<Segment> segments_ GUARDED_BY(mu_);
  // Relaxed atomics, charged without the latch; mutable so the const
  // RawPage can still account its page hand-outs.
  mutable IoStats io_stats_;
  PageId last_read_ GUARDED_BY(mu_);  // invalid when head position unknown
  // When each device channel finishes its last scheduled prefetch (NowUs
  // microseconds); io_threads entries, sized by the constructor.
  std::vector<int64_t> channel_free_us_ GUARDED_BY(mu_);
  std::atomic<int64_t> read_latency_us_{0};  // its own synchronization

  // Metric handles, null until AttachMetrics (set once at a quiescent
  // point; the metrics themselves are relaxed atomics — no GUARDED_BY).
  Counter* m_reads_seq_ = nullptr;
  Counter* m_reads_rand_ = nullptr;
  Counter* m_reads_prefetch_ = nullptr;
  Counter* m_writes_ = nullptr;
  Gauge* m_latency_us_ = nullptr;
  // Prefetch reads only; the series keep their class="prefetch" label.
  LogHistogram* m_queue_wait_us_ = nullptr;
  LogHistogram* m_service_time_us_ = nullptr;
  EventJournal* journal_ = nullptr;
};

}  // namespace dpcf
