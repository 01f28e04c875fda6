#include "storage/disk_manager.h"

#include <chrono>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/stall_tracker.h"
#include "obs/trace_collector.h"

namespace dpcf {

namespace {

constexpr size_t kCacheLineSize = 64;

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

/// Retires one claimed submission at scope exit: decrements in_flight_
/// under the ring latch and wakes producers blocked on a full ring plus
/// DrainSubmissions waiters. RAII so the slot is retired even if the
/// completion callback returns early; constructed *before* the read and
/// destroyed *after* the callback, which is what makes DrainSubmissions'
/// "every callback has returned" guarantee hold.
class CompletionScope {
 public:
  [[nodiscard]] explicit CompletionScope(DiskManager* disk) : disk_(disk) {}
  CompletionScope(const CompletionScope&) = delete;
  CompletionScope& operator=(const CompletionScope&) = delete;
  ~CompletionScope() {
    {
      MutexLock lock(&disk_->submit_mu_);
      --disk_->in_flight_;
      if (disk_->m_in_flight_ != nullptr) {
        disk_->m_in_flight_->Set(static_cast<double>(disk_->in_flight_));
      }
    }
    disk_->submit_cv_.notify_all();
  }

 private:
  DiskManager* const disk_;
};

DiskManager::DiskManager(size_t page_size)
    : DiskManager(DiskManagerOptions{page_size, 2, 256}) {}

DiskManager::DiskManager(const DiskManagerOptions& options)
    : page_size_(options.page_size),
      io_threads_(options.io_threads < 1 ? 1 : options.io_threads),
      queue_depth_(options.queue_depth < 1 ? 1 : options.queue_depth) {}

DiskManager::~DiskManager() {
  std::deque<ReadRequest> orphaned;
  {
    MutexLock lock(&submit_mu_);
    stop_workers_ = true;
    orphaned.swap(queue_);
  }
  submit_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers are gone; whatever was still waiting on the ring never ran.
  // Callers that care (the buffer pool, tests) drain or cancel first, so
  // these callbacks never reference already-destroyed state here.
  for (ReadRequest& req : orphaned) {
    if (req.on_complete) {
      req.on_complete(Status::Cancelled("disk manager destroyed"));
    }
  }
}

void DiskManager::AttachMetrics(MetricsRegistry* registry,
                                TraceCollector* trace,
                                EventJournal* journal) {
  trace_ = trace;
  journal_ = journal;
  ring_latency_observed_ = registry != nullptr || journal != nullptr;
  if (registry == nullptr) return;
  m_reads_seq_ = registry->GetCounter(
      "disk_reads_total", "Physical page reads by class",
      {{"class", "seq"}});
  m_reads_rand_ = registry->GetCounter(
      "disk_reads_total", "Physical page reads by class",
      {{"class", "rand"}});
  m_reads_prefetch_ = registry->GetCounter(
      "disk_reads_total", "Physical page reads by class",
      {{"class", "prefetch"}});
  m_writes_ = registry->GetCounter("disk_writes_total",
                                   "Physical page writes");
  m_latency_us_ = registry->GetGauge(
      "disk_read_latency_us", "Configured simulated per-read latency");
  m_latency_us_->Set(
      static_cast<double>(read_latency_us_.load(std::memory_order_relaxed)));
  m_submitted_ = registry->GetCounter(
      "disk_async_submitted_total",
      "Reads enqueued on the async submission ring");
  m_cancelled_ = registry->GetCounter(
      "disk_async_cancelled_total",
      "Submitted reads retired unread by CancelPending");
  m_queue_depth_ = registry->GetGauge(
      "disk_submission_queue_pages",
      "Pages waiting on the submission ring (unclaimed requests)");
  m_backpressure_stalls_ = registry->GetCounter(
      "disk_backpressure_stalls_total",
      "Producer waits on a full submission ring");
  m_in_flight_ = registry->GetGauge(
      "disk_in_flight_pages",
      "Claimed submissions a completion worker is currently servicing");
  m_queue_wait_us_ = registry->GetHistogram(
      "disk_queue_wait_us",
      "Wall time a submission waited unclaimed on the ring, by class", 1.0,
      2.0, 20, {{"class", "prefetch"}});
  m_service_time_us_ = registry->GetHistogram(
      "disk_service_time_us",
      "Wall time from worker claim to completion-callback return, by class",
      1.0, 2.0, 20, {{"class", "prefetch"}});
}

void DiskManager::set_read_latency_us(int64_t us) {
  read_latency_us_.store(us, std::memory_order_relaxed);
  if (m_latency_us_ != nullptr) m_latency_us_->Set(static_cast<double>(us));
}

SegmentId DiskManager::CreateSegment(std::string name) {
  MutexLock lock(&mu_);
  segments_.push_back(Segment{std::move(name), {}});
  return static_cast<SegmentId>(segments_.size() - 1);
}

Result<PageNo> DiskManager::AppendPage(SegmentId segment,
                                       const char* image) {
  // The page's one copy is filled before the latch publishes it, so a
  // reader that finds the page under the latch finds its bytes too.
  auto page = std::make_unique_for_overwrite<char[]>(page_size_);
  std::memcpy(page.get(), image, page_size_);
  MutexLock lock(&mu_);
  if (segment >= segments_.size()) {
    return Status::OutOfRange(
        StrFormat("append to unknown segment %u", segment));
  }
  std::vector<std::unique_ptr<char[]>>& pages = segments_[segment].pages;
  pages.push_back(std::move(page));
  ++io_stats_.physical_writes;
  if (m_writes_ != nullptr) m_writes_->Increment();
  return static_cast<PageNo>(pages.size() - 1);
}

uint32_t DiskManager::SegmentPageCount(SegmentId segment) const {
  MutexLock lock(&mu_);
  return static_cast<uint32_t>(segments_.at(segment).pages.size());
}

const std::string& DiskManager::SegmentName(SegmentId segment) const {
  MutexLock lock(&mu_);
  return segments_.at(segment).name;
}

bool DiskManager::ValidPage(PageId pid) const {
  return pid.segment < segments_.size() &&
         pid.page_no < segments_[pid.segment].pages.size();
}

Result<const char*> DiskManager::ReadImage(PageId pid, ReadClass cls) {
  const char* image = nullptr;
  const char* next_image = nullptr;
  {
    MutexLock lock(&mu_);
    if (!ValidPage(pid)) {
      return Status::OutOfRange(StrFormat("read of unknown page %s",
                                          pid.ToString().c_str()));
    }
    if (cls == ReadClass::kPrefetch) {
      // Speculative: charged separately and invisible to the read head, so
      // readahead cannot flip demand reads between seq and rand.
      ++io_stats_.prefetch_reads;
      if (m_reads_prefetch_ != nullptr) m_reads_prefetch_->Increment();
    } else {
      const bool sequential = last_read_.valid() &&
                              last_read_.segment == pid.segment &&
                              pid.page_no == last_read_.page_no + 1;
      if (sequential) {
        ++io_stats_.physical_seq_reads;
        if (m_reads_seq_ != nullptr) m_reads_seq_->Increment();
      } else {
        ++io_stats_.physical_rand_reads;
        if (m_reads_rand_ != nullptr) m_reads_rand_->Increment();
      }
      last_read_ = pid;
      // A sequential demand read is most likely followed by the next
      // page's, so that image is warmed in this core's caches below, as a
      // device's read-ahead fills its buffer. It is neither handed out nor
      // charged: no page leaves the disk until its own read.
      const std::vector<std::unique_ptr<char[]>>& pages =
          segments_[pid.segment].pages;
      if (sequential && pid.page_no + 1 < pages.size()) {
        next_image = pages[pid.page_no + 1].get();
      }
    }
    image = segments_[pid.segment].pages[pid.page_no].get();
  }
  if (next_image != nullptr) {
    for (size_t off = 0; off < page_size_; off += kCacheLineSize) {
      __builtin_prefetch(next_image + off, 0, 2);
    }
  }
  // The device time is served off the latch so concurrent reads overlap.
  const int64_t lat = read_latency_us_.load(std::memory_order_relaxed);
  if (lat > 0) std::this_thread::sleep_for(std::chrono::microseconds(lat));
  return image;
}

Result<const char*> DiskManager::ReadPage(PageId pid) {
  return ReadImage(pid, ReadClass::kDemand);
}

DiskManager::SubmissionGuard::SubmissionGuard(DiskManager* disk)
    : disk_(disk) {
  disk_->submit_mu_.lock();
  disk_->EnsureWorkersLocked();
}

void DiskManager::SubmissionGuard::Add(ReadRequest req) {
  // Producer backpressure: never grow the ring past queue_depth. The wait
  // releases submit_mu_, so workers can keep claiming entries.
  if (disk_->queue_.size() >= disk_->queue_depth_ &&
      !disk_->stop_workers_) {
    // A timed stall: attributed to the submitting query's StallScope,
    // counted, and bracketed in the flight recorder.
    const bool timed = disk_->ring_latency_observed_ ||
                       CurrentStallSink() != nullptr;
    const int64_t wait_t0 = timed ? SteadyNowUs() : 0;
    if (disk_->m_backpressure_stalls_ != nullptr) {
      disk_->m_backpressure_stalls_->Increment();
    }
    if (disk_->journal_ != nullptr) {
      disk_->journal_->Record(JournalEvent::kBackpressureBegin,
                              disk_->queue_.size());
    }
    // This guard announces its entries only at scope exit; wake the
    // workers now, or a batch longer than the free ring space would wait
    // on workers nobody woke.
    disk_->submit_cv_.notify_all();
    while (disk_->queue_.size() >= disk_->queue_depth_ &&
           !disk_->stop_workers_) {
      disk_->submit_cv_.wait(disk_->submit_mu_);
    }
    if (timed) {
      const int64_t waited_us = SteadyNowUs() - wait_t0;
      ChargeStall(StallKind::kBackpressureWait, waited_us);
      if (disk_->journal_ != nullptr) {
        disk_->journal_->Record(JournalEvent::kBackpressureEnd,
                                static_cast<uint64_t>(waited_us));
      }
    }
  }
  if (disk_->ring_latency_observed_) {
    req.submit_us = SteadyNowUs();
  }
  if (disk_->journal_ != nullptr) {
    disk_->journal_->Record(JournalEvent::kRingSubmit, req.pid.page_no);
  }
  disk_->queue_.push_back(std::move(req));
  if (disk_->m_submitted_ != nullptr) disk_->m_submitted_->Increment();
  if (disk_->m_queue_depth_ != nullptr) {
    disk_->m_queue_depth_->Set(static_cast<double>(disk_->queue_.size()));
  }
  ++added_;
}

DiskManager::SubmissionGuard::~SubmissionGuard() {
  disk_->submit_mu_.unlock();
  if (added_ > 0) {
    disk_->submit_cv_.notify_all();
    if (disk_->trace_ != nullptr && disk_->trace_->enabled()) {
      disk_->trace_->AddInstant(
          "io", StrFormat("submit batch n=%zu", added_));
    }
  }
}

void DiskManager::SubmitBatch(std::vector<ReadRequest> batch) {
  if (batch.empty()) return;
  SubmissionGuard guard(this);
  for (ReadRequest& req : batch) guard.Add(std::move(req));
}

void DiskManager::EnsureWorkersLocked() {
  if (workers_started_) return;
  workers_started_ = true;
  workers_.reserve(static_cast<size_t>(io_threads_));
  for (int i = 0; i < io_threads_; ++i) {
    workers_.emplace_back([this] { IoWorkerLoop(); });
  }
}

void DiskManager::IoWorkerLoop() {
  for (;;) {
    submit_mu_.lock();
    while (queue_.empty() && !stop_workers_) {
      submit_cv_.wait(submit_mu_);
    }
    if (queue_.empty()) {  // stop requested and nothing left to claim
      submit_mu_.unlock();
      return;
    }
    ReadRequest req = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    if (m_in_flight_ != nullptr) {
      m_in_flight_->Set(static_cast<double>(in_flight_));
    }
    submit_mu_.unlock();
    // A producer may be blocked on the full ring; the claim freed a slot.
    submit_cv_.notify_all();
    {
      CompletionScope done(this);
      // Claim timestamp: splits submit→complete into queue wait
      // (submit→dispatch) and service time (dispatch→complete).
      const int64_t dispatch_us = req.submit_us != 0 ? SteadyNowUs() : 0;
      if (req.submit_us != 0) {
        const int64_t queue_wait = dispatch_us - req.submit_us;
        if (m_queue_wait_us_ != nullptr) {
          m_queue_wait_us_->Observe(static_cast<double>(queue_wait));
        }
        if (journal_ != nullptr) {
          journal_->Record(JournalEvent::kRingDispatch, req.pid.page_no,
                           static_cast<uint64_t>(queue_wait));
        }
      }
      const bool traced = trace_ != nullptr && trace_->enabled();
      const int64_t span_begin = traced ? trace_->NowUs() : 0;
      const Result<const char*> read =
          ReadImage(req.pid, ReadClass::kPrefetch);
      if (traced) {
        trace_->AddSpan(
            "io",
            StrFormat("async prefetch read %s", req.pid.ToString().c_str()),
            span_begin);
      }
      if (req.on_complete) req.on_complete(read);
      if (req.submit_us != 0) {
        const int64_t service = SteadyNowUs() - dispatch_us;
        if (m_service_time_us_ != nullptr) {
          m_service_time_us_->Observe(static_cast<double>(service));
        }
        if (journal_ != nullptr) {
          journal_->Record(JournalEvent::kRingComplete, req.pid.page_no,
                           static_cast<uint64_t>(service));
        }
      }
    }
  }
}

void DiskManager::CancelPending() {
  // Moved out into a vector, which allocates nothing when the ring is empty
  // (a default-constructed std::deque allocates): BufferPool::ColdReset
  // calls this on every cold run and allocates nothing itself.
  std::vector<ReadRequest> cancelled;
  {
    MutexLock lock(&submit_mu_);
    cancelled.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(queue_.end()));
    queue_.clear();
    if (m_queue_depth_ != nullptr) m_queue_depth_->Set(0.0);
  }
  // Producers blocked on a full ring can proceed now.
  submit_cv_.notify_all();
  // Callbacks fire off-latch: they are allowed to take buffer-pool shard
  // latches (rank 100), which would invert against submit_mu_ (rank 250).
  for (ReadRequest& req : cancelled) {
    if (m_cancelled_ != nullptr) m_cancelled_->Increment();
    if (req.on_complete) {
      req.on_complete(
          Status::Cancelled("read retired from the submission ring"));
    }
  }
}

void DiskManager::DrainSubmissions() {
  submit_mu_.lock();
  while (!queue_.empty() || in_flight_ > 0) {
    submit_cv_.wait(submit_mu_);
  }
  submit_mu_.unlock();
}

size_t DiskManager::pending_submissions() const {
  MutexLock lock(&submit_mu_);
  return queue_.size() + in_flight_;
}

const char* DiskManager::RawPage(PageId pid) const {
  ++io_stats_.raw_page_reads;  // atomic; no page access is unaccounted
  MutexLock lock(&mu_);
  return segments_.at(pid.segment).pages.at(pid.page_no).get();
}

void DiskManager::ResetReadHead() {
  MutexLock lock(&mu_);
  last_read_ = PageId{};
}

}  // namespace dpcf
