#include "storage/disk_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/string_util.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"

namespace dpcf {

namespace {

constexpr size_t kCacheLineSize = 64;

}  // namespace

DiskManager::DiskManager(size_t page_size)
    : DiskManager(DiskManagerOptions{page_size}) {}

DiskManager::DiskManager(const DiskManagerOptions& options)
    : page_size_(options.page_size),
      channel_free_us_(static_cast<size_t>(std::max(options.io_threads, 1)),
                       0) {}

void DiskManager::AttachMetrics(MetricsRegistry* registry,
                                EventJournal* journal) {
  journal_ = journal;
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
  m_queue_wait_us_ = registry->GetHistogram(
      "disk_queue_wait_us",
      "Simulated wait of a read for a free device channel, by class", 1.0,
      2.0, 20, {{"class", "prefetch"}});
  m_service_time_us_ = registry->GetHistogram(
      "disk_service_time_us",
      "Simulated device time of a read once its channel is free, by class",
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

Result<PageRead> DiskManager::ReadImage(PageId pid, ReadClass cls) {
  const int64_t latency = read_latency_us_.load(std::memory_order_relaxed);
  // The clock is read only when there is device time to schedule.
  const int64_t now = latency > 0 ? NowUs() : 0;
  int64_t start = now;  // when the device begins this read
  PageRead read;
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
      if (latency > 0) {
        // The earliest-free channel takes the read; it starts once that
        // channel has finished the reads scheduled on it before.
        const auto channel = std::min_element(channel_free_us_.begin(),
                                              channel_free_us_.end());
        start = std::max(now, *channel);
        *channel = start + latency;
      }
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
    read.image = segments_[pid.segment].pages[pid.page_no].get();
  }
  if (latency > 0) read.due_us = start + latency;
  if (cls == ReadClass::kPrefetch) {
    const int64_t queue_wait = start - now;
    if (m_queue_wait_us_ != nullptr) {
      m_queue_wait_us_->Observe(static_cast<double>(queue_wait));
      m_service_time_us_->Observe(static_cast<double>(latency));
    }
    if (journal_ != nullptr) {
      journal_->Record(JournalEvent::kRingSubmit, pid.page_no,
                       static_cast<uint64_t>(queue_wait));
    }
  }
  if (next_image != nullptr) {
    for (size_t off = 0; off < page_size_; off += kCacheLineSize) {
      __builtin_prefetch(next_image + off, 0, 2);
    }
  }
  return read;
}

int64_t DiskManager::NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void DiskManager::WaitUntil(int64_t due_us) {
  if (due_us == 0) return;
#if defined(__linux__)
  // Linux lets a thread's timers fire up to its slack (50 µs by default)
  // late; ask once per thread for 1 ns. A refused call leaves the default.
  [[maybe_unused]] thread_local const int slack_set =
      prctl(PR_SET_TIMERSLACK, 1UL);
#endif
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::microseconds(due_us)));
}

const char* DiskManager::RawPage(PageId pid) const {
  ++io_stats_.raw_page_reads;  // atomic; no page access is unaccounted
  MutexLock lock(&mu_);
  return segments_.at(pid.segment).pages.at(pid.page_no).get();
}

void DiskManager::ResetReadHead() {
  MutexLock lock(&mu_);
  last_read_ = PageId{};
  std::fill(channel_free_us_.begin(), channel_free_us_.end(), 0);
}

}  // namespace dpcf
