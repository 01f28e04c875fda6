// TraceCollector: Chrome trace_event JSON recording for the execution
// engine (DESIGN.md section 11).
//
// Spans are recorded as complete events ("ph": "X") with microsecond
// timestamps relative to the collector's construction, on a steady clock so
// recording never perturbs feedback determinism (wall time is reporting
// only, as with RunStatistics::wall_ms). The emitting sites — morsel
// dispatch, buffer-pool miss I/O, readahead prefetches, monitor merge,
// operator open/close — all check enabled() before touching the clock, so a
// disabled collector costs one relaxed load per potential span.
//
// The resulting JSON loads directly into chrome://tracing or Perfetto
// (ui.perfetto.dev); see README "Observability".

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace dpcf {

/// String (key, value) pairs attached to an event's "args" object.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class TraceCollector {
 public:
  /// Starts disabled; set_enabled() is the switch.
  TraceCollector();

  /// RAII thread-local query-id scope: every event recorded from this
  /// thread while the scope is live carries a {"qid": "<id>"} arg, letting
  /// concurrent sessions untangle their spans in one trace file. The
  /// driver thread opens a scope in ExecutePlan from ExecContext::query_id;
  /// parallel-scan workers open their own (the id is thread-local, so
  /// spawned threads do not inherit it). id 0 = no tag.
  /// Scopes nest; the previous id is restored on destruction.
  class QueryIdScope {
   public:
    [[nodiscard]] explicit QueryIdScope(uint64_t query_id);
    QueryIdScope(const QueryIdScope&) = delete;
    QueryIdScope& operator=(const QueryIdScope&) = delete;
    ~QueryIdScope();

   private:
    uint64_t prev_;
  };

  /// The calling thread's current query id (0 when no scope is live).
  static uint64_t current_query_id();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since the collector's epoch (steady clock). Span sites
  /// take the begin timestamp themselves so the duration excludes none of
  /// the traced work.
  int64_t NowUs() const;

  /// Records a complete event spanning [begin_us, NowUs()] on the calling
  /// thread. No-op when disabled. An event's tid is the thread's
  /// ThisThreadIndex (obs/event_journal.h), the journal's number for the
  /// same thread; events beyond the cap are counted as dropped, not stored.
  void AddSpan(const char* category, std::string name, int64_t begin_us,
               TraceArgs args = {}) EXCLUDES(mu_);

  /// Records an instant event ("ph": "i") at NowUs(). No-op when disabled.
  void AddInstant(const char* category, std::string name,
                  TraceArgs args = {}) EXCLUDES(mu_);

  size_t event_count() const EXCLUDES(mu_);
  size_t dropped_events() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  /// Maximum stored events; further events are dropped (and counted).
  void set_max_events(size_t cap) { max_events_ = cap; }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — the Chrome
  /// trace_event JSON object format.
  std::string ToJson() const EXCLUDES(mu_);

 private:
  struct Event {
    char phase;  // 'X' (complete) or 'i' (instant)
    const char* category;
    std::string name;
    int64_t ts_us = 0;
    int64_t dur_us = 0;  // complete events only
    uint32_t tid = 0;
    TraceArgs args;
  };

  void Record(Event event) EXCLUDES(mu_);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  size_t max_events_ = 1 << 20;
  // A leaf: Record takes no other latch while holding this one.
  mutable Mutex mu_{lock_rank::kTraceCollector};
  std::vector<Event> events_ GUARDED_BY(mu_);
  size_t dropped_ GUARDED_BY(mu_) = 0;
};

/// RAII span: captures the begin timestamp at construction and records on
/// destruction. Resolves to a no-op (no clock read) when `trace` is null or
/// disabled.
class ScopedSpan {
 public:
  [[nodiscard]] ScopedSpan(TraceCollector* trace, const char* category,
                           std::string name)
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr) {
    if (trace_ != nullptr) {
      category_ = category;
      name_ = std::move(name);
      begin_us_ = trace_->NowUs();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->AddSpan(category_, std::move(name_), begin_us_);
    }
  }

 private:
  TraceCollector* trace_;
  const char* category_ = "";
  std::string name_;
  int64_t begin_us_ = 0;
};

}  // namespace dpcf
