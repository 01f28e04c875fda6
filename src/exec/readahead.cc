#include "exec/readahead.h"

#include "obs/event_journal.h"
#include "obs/metrics_registry.h"

namespace dpcf {

AdaptiveReadaheadController::AdaptiveReadaheadController(
    const AdaptiveReadaheadConfig& config, const IoStats* io,
    Gauge* window_gauge, EventJournal* journal)
    : config_(config),
      io_(io),
      window_gauge_(window_gauge),
      journal_(journal),
      window_(config.initial_window),
      seen_reads_(io->prefetch_reads),
      seen_hits_(io->prefetch_hits),
      seen_rejected_(io->prefetch_rejected) {
  if (config_.min_window < 1) config_.min_window = 1;
  if (config_.min_window > config_.initial_window) {
    config_.min_window = config_.initial_window;
  }
  if (config_.max_window < config_.initial_window) {
    config_.max_window = config_.initial_window;
  }
  Publish(config_.initial_window);
}

void AdaptiveReadaheadController::Publish(int64_t w) {
  const int64_t old = window_.load(std::memory_order_relaxed);
  window_.store(w, std::memory_order_relaxed);
  if (window_gauge_ != nullptr) {
    window_gauge_->Set(static_cast<double>(w));
  }
  if (journal_ != nullptr && w != old) {
    journal_->Record(JournalEvent::kReadaheadResize,
                     static_cast<uint64_t>(w), static_cast<uint64_t>(old));
  }
}

void AdaptiveReadaheadController::Update() {
  // Quiescent-enough snapshots: these counters are relaxed atomics shared
  // with the scan workers, so a delta can miss an in-flight increment; it
  // is then observed by the next Update. The law only needs trends.
  const int64_t reads = io_->prefetch_reads;
  const int64_t hits = io_->prefetch_hits;
  const int64_t rejected = io_->prefetch_rejected;
  const int64_t d_reads = reads - seen_reads_;
  const int64_t d_hits = hits - seen_hits_;
  const int64_t d_rejected = rejected - seen_rejected_;
  seen_reads_ = reads;
  seen_hits_ = hits;
  seen_rejected_ = rejected;

  const int64_t w = window_.load(std::memory_order_relaxed);
  if (d_rejected > 0) {
    // The pool dropped submissions: the window outran the evictable frames
    // of some shard. Back off before racing further ahead.
    const int64_t narrowed = w / 2 < config_.min_window
                                 ? config_.min_window
                                 : w / 2;
    if (narrowed != w) ++narrowings_;
    Publish(narrowed);
    return;
  }
  if (d_reads <= 0) return;  // no new signal this quantum
  if (4 * d_hits >= 3 * d_reads) {
    // Nearly everything staged is being consumed: the scan is I/O bound
    // and a wider window covers more of the device latency.
    const int64_t widened = 2 * w > config_.max_window ? config_.max_window
                                                       : 2 * w;
    if (widened != w) ++widenings_;
    Publish(widened);
    return;
  }
  if (4 * d_hits < d_reads && d_reads >= w) {
    // A full window of speculative reads went mostly unconsumed: narrow
    // so eviction churn stops wasting simulated device time.
    const int64_t narrowed = w / 2 < config_.min_window
                                 ? config_.min_window
                                 : w / 2;
    if (narrowed != w) ++narrowings_;
    Publish(narrowed);
  }
}

}  // namespace dpcf
