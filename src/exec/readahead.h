// Adaptive readahead window for morsel-parallel scans.
//
// The static `prefetch_pages` knob picks one window for every table, pool
// size and thread count; the right value is workload-dependent and the
// signal needed to pick it is already measured: IoStats::prefetch_hits /
// prefetch_reads says whether speculative reads are being consumed, and
// prefetch_rejected says the window outran the pool shard it was filling.
// This controller closes that loop per scan — the same
// execution-feedback idea the paper applies to page-count estimates,
// applied to the I/O layer itself.
//
// Control law (Update(), evaluated by the readahead thread after each
// submitted batch, integer arithmetic only — no clocks, no randomness, so
// the dpcf-{ast-,}nondeterminism rules stay clean in src/exec):
//   * any prefetch_rejected delta  -> halve the window (backpressure:
//     the pool is dropping our submissions, racing further ahead only
//     wastes ring slots);
//   * hit ratio >= 3/4 of the reads delta -> double the window (the scan
//     is consuming everything we stage; stage more to cover more latency);
//   * hit ratio < 1/4 with at least a window's worth of reads observed
//     -> halve (we are reading pages the scan does not reach in time).
// The window is clamped to [min_window, max_window]; max_window is half
// the buffer pool so prefetch can never evict pages the scan still needs.
//
// Monitors never see any of this: the window only shifts pages between the
// prefetch and demand read classes, and ScanMonitorBundle feedback is a
// pure function of (page sequence, seed) — so merged MonitorRecords stay
// bit-for-bit identical across initial windows and thread counts
// (asserted by tests/async_disk_test.cc).

#pragma once

#include <atomic>
#include <cstdint>

#include "storage/io_stats.h"

namespace dpcf {

class Gauge;         // obs/metrics_registry.h
class EventJournal;  // obs/event_journal.h

struct AdaptiveReadaheadConfig {
  /// Starting window, pages (the plumbed prefetch_pages knob, already
  /// clamped to half the pool by the scan).
  int64_t initial_window = 0;
  /// Floor: narrowing below this would make readahead pointless overhead.
  int64_t min_window = 4;
  /// Ceiling: half the buffer pool (the scan clamps it).
  int64_t max_window = 0;
};

/// Owned by one scan; Update() is called only from that scan's readahead
/// thread. window() is an atomic read so the wait predicate (and tests)
/// may read it from other threads.
class AdaptiveReadaheadController {
 public:
  /// `io` must outlive the controller (it is the disk's IoStats block).
  /// `window_gauge` may be null; when set it mirrors the current window.
  /// `journal` may be null; when set every window *change* (not the
  /// initial publish) records a kReadaheadResize event.
  AdaptiveReadaheadController(const AdaptiveReadaheadConfig& config,
                              const IoStats* io, Gauge* window_gauge,
                              EventJournal* journal = nullptr);

  int64_t window() const {
    return window_.load(std::memory_order_relaxed);
  }

  /// Applies the control law to the counter deltas since the previous
  /// Update (or construction). Readahead-thread only.
  void Update();

  /// Times the window was widened / narrowed (tests and bench reporting).
  int64_t widenings() const { return widenings_; }
  int64_t narrowings() const { return narrowings_; }

 private:
  void Publish(int64_t w);

  AdaptiveReadaheadConfig config_;
  const IoStats* io_;
  Gauge* window_gauge_;
  EventJournal* journal_;
  std::atomic<int64_t> window_;
  // Counter snapshots at the previous Update; readahead-thread only.
  int64_t seen_reads_ = 0;
  int64_t seen_hits_ = 0;
  int64_t seen_rejected_ = 0;
  int64_t widenings_ = 0;
  int64_t narrowings_ = 0;
};

}  // namespace dpcf
