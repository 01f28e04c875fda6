#include "obs/event_journal.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/string_util.h"

namespace dpcf {

namespace {

// The journal is an observability sink (NONDET_BARRIERS in
// tools/lint/dpcf_lint.py): timestamps feed the dump, never feedback state.
uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

uint32_t ThisThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

const char* JournalEventName(JournalEvent e) {
  switch (e) {
    case JournalEvent::kNone:
      return "none";
    case JournalEvent::kRingSubmit:
      return "ring_submit";
    case JournalEvent::kLoadWait:
      return "loading_wait";
    case JournalEvent::kMonitorBuild:
      return "monitor_build";
    case JournalEvent::kMonitorMerge:
      return "monitor_merge";
    case JournalEvent::kEviction:
      return "eviction";
    case JournalEvent::kDriftAlert:
      return "drift_alert";
  }
  return "unknown";
}

EventJournal::EventJournal(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), ring_(capacity_) {}

void EventJournal::Record(JournalEvent type, uint64_t a, uint64_t b) {
  const uint32_t thread = ThisThreadIndex();
  MutexLock lock(&mu_);
  ring_[head_ % capacity_] = Event{SteadyNowUs(), thread, type, a, b};
  ++head_;
  threads_ = std::max(threads_, thread + 1);
}

uint64_t EventJournal::OldestLocked() const {
  return head_ > capacity_ ? head_ - capacity_ : 0;
}

std::vector<EventJournal::Event> EventJournal::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<Event> out;
  out.reserve(head_ - OldestLocked());
  for (uint64_t pos = OldestLocked(); pos < head_; ++pos) {
    out.push_back(ring_[pos % capacity_]);
  }
  return out;
}

int64_t EventJournal::dropped_overwritten() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(OldestLocked());
}

size_t EventJournal::thread_count() const {
  MutexLock lock(&mu_);
  return threads_;
}

std::string EventJournal::ToJson() const {
  // Snapshot first: the thread count only grows, so every event's thread
  // index stays below the count written.
  std::vector<Event> events = Snapshot();
  std::string out = "{\n";
  out += StrFormat("  \"capacity\": %zu,\n", capacity_);
  out += StrFormat("  \"threads\": %zu,\n", thread_count());
  out += StrFormat("  \"dropped_overwritten\": %lld,\n",
                   static_cast<long long>(dropped_overwritten()));
  out += "  \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "\n    {\"ts_us\": %llu, \"thread\": %u, \"type\": \"%s\", "
        "\"a\": %llu, \"b\": %llu}",
        static_cast<unsigned long long>(e.ts_us), e.thread_index,
        JsonEscape(JournalEventName(e.type)).c_str(),
        static_cast<unsigned long long>(e.a),
        static_cast<unsigned long long>(e.b));
  }
  out += events.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace dpcf
