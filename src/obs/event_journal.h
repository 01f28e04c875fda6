// Flight-recorder event journal: one fixed-capacity ring of compact binary
// events, always on at near-zero cost.
//
// Unlike the TraceCollector (opt-in, unbounded, span-structured), the
// journal is the crash-cart view: every instrumented site appends a 32-byte
// event to the ring, overwriting the oldest, so the last `capacity` events
// are available for dumping (`journal.json` under DPCF_OBS_DIR) no matter
// what tracing was configured.
//
// The ring is preallocated and guarded by one latch
// (lock_rank::kEventJournal, ranked above every latch held at a Record
// site: the buffer-pool shard latch for evictions and scheduled prefetches,
// the drift monitor's latch for drift alerts). Record writes one slot under
// it and allocates nothing; the timestamp is taken under the latch, so ring
// order is timestamp order. Each event carries the recording thread's
// index (ThisThreadIndex): threads alive at the same time never share one.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace dpcf {

/// Event taxonomy (DESIGN.md section 15). Arguments a/b are event-typed:
/// page numbers, waited microseconds, counts, milli-q-errors. Values are
/// stable across versions; 2-5 (the submission ring's dispatch, completion
/// and backpressure events) and 7 (readahead window resizes) are retired.
enum class JournalEvent : uint32_t {
  kNone = 0,
  kRingSubmit = 1,        // a=page, b=channel wait us (a scheduled prefetch)
  kLoadWait = 6,          // a=page, b=waited us (its name: loading_wait)
  kMonitorBuild = 8,      // a=monitor count
  kMonitorMerge = 9,      // a=merged bundles
  kEviction = 10,         // a=evicted page
  kDriftAlert = 11,       // a=milli q-error, b=observations
};

/// Stable lower_snake_case name for the JSON dump ("ring_submit", ...).
const char* JournalEventName(JournalEvent e);

/// The calling thread's process-wide ordinal: given once, the first time
/// the thread asks (its first journal Record or trace event), and never
/// reused. Journal events carry it as `thread` and trace events as `tid`,
/// so one thread has one number in journal.json and trace.json alike.
uint32_t ThisThreadIndex();

class EventJournal {
 public:
  /// One event, as recorded and as returned by Snapshot().
  struct Event {
    uint64_t ts_us = 0;        // steady-clock microseconds
    uint32_t thread_index = 0; // the recording thread's ordinal
    JournalEvent type = JournalEvent::kNone;
    uint64_t a = 0;
    uint64_t b = 0;
  };

  /// The default holds 4096 events for each of three recording threads,
  /// the most that record at once in perfbench (a parallel scan's driver
  /// and two workers).
  explicit EventJournal(size_t capacity = 3 * 4096);
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Appends one event, overwriting the oldest once the ring is full. Safe
  /// from any thread holding latches of lower rank only.
  void Record(JournalEvent type, uint64_t a = 0, uint64_t b = 0)
      EXCLUDES(mu_);

  /// Copies every event still in the ring, oldest first.
  std::vector<Event> Snapshot() const EXCLUDES(mu_);

  /// journal.json: capacity, thread count, drop counter, and the events
  /// still in the ring in timestamp order.
  std::string ToJson() const EXCLUDES(mu_);

  /// Events the ring has overwritten, so that Snapshot().size() +
  /// dropped_overwritten() is the number of events recorded.
  int64_t dropped_overwritten() const EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  /// One more than the highest thread index recorded so far, so every
  /// event's thread_index is below it.
  size_t thread_count() const EXCLUDES(mu_);

 private:
  /// First ring position still holding its event.
  uint64_t OldestLocked() const REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_{lock_rank::kEventJournal};
  std::vector<Event> ring_ GUARDED_BY(mu_);  // capacity_ slots
  uint64_t head_ GUARDED_BY(mu_) = 0;        // events recorded
  uint32_t threads_ GUARDED_BY(mu_) = 0;
};

}  // namespace dpcf
