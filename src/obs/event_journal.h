// Flight-recorder event journal: fixed-capacity per-thread ring buffers of
// compact binary events, always on at near-zero cost.
//
// Unlike the TraceCollector (opt-in, unbounded, span-structured), the
// journal is the crash-cart view: every thread that touches an
// instrumented site appends a 40-byte event to its own ring, overwriting
// the oldest, so the last `capacity` events per thread are available for
// dumping (`journal.json` under DPCF_OBS_DIR) no matter what tracing was
// configured. The write path takes no lock:
//
//  * each live ring has exactly ONE writer — the thread that registered
//    or adopted it — so the head cursor is a plain monotone counter;
//  * slots are per-slot seqlocks over relaxed atomics (Boehm's pattern:
//    odd seq while writing, release-publish on completion; readers
//    re-check the seq and drop torn slots), so a concurrent Snapshot()
//    never blocks a writer and never observes a half-written event;
//  * ring registration pushes onto a lock-free intrusive list; the
//    journal's ranked mutex (lock_rank::kEventJournal) serializes only
//    the snapshot/drain side and is never held while recording.
//
// Threads cache their ring in a small thread_local table keyed by
// (journal pointer, globally unique journal id) so a destroyed journal's
// reused address can never resurrect a stale ring pointer. A ring outlives
// its writer: when the thread exits (or evicts the cache entry) the ring,
// events and all, is handed back, and the next thread that registers with
// the journal adopts it instead of allocating. Rings therefore track the
// peak number of concurrently recording threads, not every short-lived
// scan worker that ever recorded. The journal and the writer each hold a
// reference to the ring, so either may be destroyed first.

#pragma once

#include <atomic>
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

class EventJournal {
 public:
  /// One decoded event, as returned by Snapshot()/Drain().
  struct Event {
    uint64_t ts_us = 0;        // steady-clock microseconds
    uint32_t thread_index = 0; // ring index, in registration order
    JournalEvent type = JournalEvent::kNone;
    uint64_t a = 0;
    uint64_t b = 0;
  };

  explicit EventJournal(size_t events_per_thread = 4096);
  ~EventJournal();
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Appends one event to the calling thread's ring. Lock-free; safe from
  /// any thread, including while holding any ranked latch.
  void Record(JournalEvent type, uint64_t a = 0, uint64_t b = 0);

  /// Copies every undrained event (oldest first, merged across rings and
  /// sorted by timestamp) without consuming them.
  std::vector<Event> Snapshot() const EXCLUDES(drain_mu_);

  /// Like Snapshot(), but advances each ring's watermark so the next
  /// Drain()/Snapshot() only sees newer events.
  std::vector<Event> Drain() EXCLUDES(drain_mu_);

  /// journal.json: capacity, ring count, drop counters, and the sorted
  /// undrained events.
  std::string ToJson() const EXCLUDES(drain_mu_);

  /// Events dropped because a writer overwrote them mid-copy (torn) or
  /// lapped the reader before the copy started (overwritten). Cumulative
  /// across snapshots.
  int64_t dropped_torn() const {
    return dropped_torn_.load(std::memory_order_relaxed);
  }
  int64_t dropped_overwritten() const {
    return dropped_overwritten_.load(std::memory_order_relaxed);
  }

  size_t capacity_per_thread() const { return capacity_; }
  /// Rings registered so far (monotone; rings are never removed, and an
  /// exited thread's ring is adopted by the next registering thread, so
  /// this is the peak number of concurrent writers).
  size_t thread_count() const {
    return num_rings_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    // Seqlock generation: odd while the writer is mid-update. All words
    // are relaxed atomics so concurrent snapshot copies are race-free;
    // the seq re-check (not the memory model) rejects torn copies.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint64_t> type{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<Slot> slots;
    std::atomic<uint64_t> head{0};     // next position to write
    std::atomic<uint64_t> drained{0};  // first position Drain hasn't taken
    uint32_t thread_index = 0;
    Ring* next = nullptr;  // immutable after the CAS publish
    // References: one for the journal (dropped by its destructor) plus one
    // while a writer thread holds the ring. 1 with the journal alive means
    // the ring is idle and adoptable; whoever drops the last one frees it.
    std::atomic<uint32_t> refs{2};
  };

  /// Hands this thread's cached rings back at thread exit (event_journal.cc).
  struct ThreadRings;
  static thread_local ThreadRings thread_rings_;

  /// Fast path: thread-local cache hit. Slow path: adopt an idle ring, or
  /// allocate + publish a new one (lock-free CAS push).
  Ring* RingForThisThread();

  /// Drops one reference to `ring`, freeing it on the last.
  static void Unref(Ring* ring);

  std::vector<Event> Collect(bool advance) const;

  const size_t capacity_;
  const uint64_t id_;  // process-unique, guards the thread-local cache
  std::atomic<Ring*> rings_{nullptr};
  std::atomic<uint32_t> num_rings_{0};
  mutable std::atomic<int64_t> dropped_torn_{0};
  mutable std::atomic<int64_t> dropped_overwritten_{0};
  /// Serializes Snapshot/Drain against each other (watermark updates);
  /// never touched by Record().
  mutable Mutex drain_mu_{lock_rank::kEventJournal};
};

}  // namespace dpcf
