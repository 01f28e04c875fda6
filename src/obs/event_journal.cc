#include "obs/event_journal.h"

#include <algorithm>
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

std::atomic<uint64_t> g_journal_ids{1};

// Per-thread ring cache. Entries are matched on BOTH the journal pointer
// and its process-unique id: a new journal allocated at a dead journal's
// address gets a different id, so a stale entry can only miss, never
// dangle. Each entry holds a writer reference to its ring, so the ring
// outlives a dead journal until the entry lets go. Four entries cover
// every test that juggles multiple journals; eviction hands the evicted
// ring back (it stays drainable in its journal and adoptable by the next
// thread that registers there) and re-registers on the next miss.
struct RingCacheEntry {
  const void* journal = nullptr;
  uint64_t id = 0;
  void* ring = nullptr;
};
constexpr int kRingCacheSize = 4;
thread_local RingCacheEntry g_ring_cache[kRingCacheSize];
thread_local int g_ring_cache_next = 0;

}  // namespace

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

EventJournal::EventJournal(size_t events_per_thread)
    : capacity_(events_per_thread == 0 ? 1 : events_per_thread),
      id_(g_journal_ids.fetch_add(1, std::memory_order_relaxed)) {}

// Touched only on the registration slow path, so Record's fast path reads
// nothing but the trivially destructible cache above; its destructor runs
// at thread exit and releases every ring the cache still holds.
struct EventJournal::ThreadRings {
  bool armed = false;
  ~ThreadRings() {
    for (RingCacheEntry& e : g_ring_cache) {
      if (e.ring != nullptr) Unref(static_cast<Ring*>(e.ring));
      e = RingCacheEntry{};
    }
  }
};
thread_local EventJournal::ThreadRings EventJournal::thread_rings_;

EventJournal::~EventJournal() {
  Ring* r = rings_.load(std::memory_order_acquire);
  while (r != nullptr) {
    Ring* next = r->next;
    Unref(r);  // a ring whose writer is still alive is freed by its thread
    r = next;
  }
}

void EventJournal::Unref(Ring* ring) {
  // acq_rel: the last owner sees every write the other made before
  // letting go, so the delete cannot race a final Record or Collect.
  if (ring->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete ring;  // NOLINT(dpcf-naked-new) — allocated below
  }
}

EventJournal::Ring* EventJournal::RingForThisThread() {
  for (int i = 0; i < kRingCacheSize; ++i) {
    const RingCacheEntry& e = g_ring_cache[i];
    if (e.journal == this && e.id == id_) {
      return static_cast<Ring*>(e.ring);
    }
  }
  // Adopt the ring of a thread that has exited: the acquiring CAS makes
  // the previous writer's head and slots visible, and it succeeds for one
  // thread only, so the ring keeps a single writer.
  Ring* ring = nullptr;
  for (Ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    uint32_t idle = 1;
    if (r->refs.compare_exchange_strong(idle, 2, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      ring = r;
      break;
    }
  }
  if (ring == nullptr) {
    // Raw new: the ring is published by lock-free CAS into an intrusive
    // list whose `next` must live inside the node, which rules out
    // unique_ptr links; Unref frees it.
    ring = new Ring(capacity_);  // NOLINT(dpcf-naked-new)
    ring->thread_index = num_rings_.fetch_add(1, std::memory_order_acq_rel);
    Ring* head = rings_.load(std::memory_order_acquire);
    do {
      ring->next = head;
    } while (!rings_.compare_exchange_weak(head, ring,
                                           std::memory_order_release,
                                           std::memory_order_acquire));
  }
  RingCacheEntry& slot = g_ring_cache[g_ring_cache_next];
  g_ring_cache_next = (g_ring_cache_next + 1) % kRingCacheSize;
  if (slot.ring != nullptr) Unref(static_cast<Ring*>(slot.ring));
  slot.journal = this;
  slot.id = id_;
  slot.ring = ring;
  thread_rings_.armed = true;  // registers the thread-exit release
  return ring;
}

void EventJournal::Record(JournalEvent type, uint64_t a, uint64_t b) {
  Ring* ring = RingForThisThread();
  const uint64_t pos = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[pos % capacity_];
  const uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
  // Seqlock writer (single writer per ring): mark in-progress, publish the
  // words, then release the even generation. The release fence keeps the
  // odd seq visible before any word; the final release store keeps every
  // word visible before the even seq.
  s.seq.store(seq0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ts_us.store(SteadyNowUs(), std::memory_order_relaxed);
  s.type.store(static_cast<uint64_t>(type), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.seq.store(seq0 + 2, std::memory_order_release);
  ring->head.store(pos + 1, std::memory_order_release);
}

std::vector<EventJournal::Event> EventJournal::Collect(bool advance) const {
  std::vector<Event> out;
  for (Ring* ring = rings_.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t drained = ring->drained.load(std::memory_order_relaxed);
    uint64_t start = head > capacity_ ? head - capacity_ : 0;
    if (drained > start) {
      start = drained;
    } else if (advance && start > drained) {
      // Positions lapped before this drain even looked: count them so the
      // loss is visible (Drain preserves events + drops == events
      // recorded; snapshots never consume, so they don't count these).
      dropped_overwritten_.fetch_add(
          static_cast<int64_t>(start - drained), std::memory_order_relaxed);
    }
    for (uint64_t pos = start; pos < head; ++pos) {
      const Slot& s = ring->slots[pos % capacity_];
      // A slot at ring position pos has been written exactly
      // pos/capacity + 1 times when it still holds pos's event; any other
      // generation means the writer lapped us.
      const uint64_t expect_seq = 2 * (pos / capacity_ + 1);
      const uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 != expect_seq) {
        if (s1 > expect_seq) {
          dropped_overwritten_.fetch_add(1, std::memory_order_relaxed);
        } else {
          dropped_torn_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      Event e;
      e.ts_us = s.ts_us.load(std::memory_order_relaxed);
      e.type = static_cast<JournalEvent>(
          s.type.load(std::memory_order_relaxed));
      e.a = s.a.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      e.thread_index = ring->thread_index;
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t s2 = s.seq.load(std::memory_order_relaxed);
      if (s1 != s2) {
        dropped_torn_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out.push_back(e);
    }
    if (advance) {
      ring->drained.store(head, std::memory_order_relaxed);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.ts_us < y.ts_us;
                   });
  return out;
}

std::vector<EventJournal::Event> EventJournal::Snapshot() const {
  MutexLock lock(&drain_mu_);
  return Collect(/*advance=*/false);
}

std::vector<EventJournal::Event> EventJournal::Drain() {
  MutexLock lock(&drain_mu_);
  return Collect(/*advance=*/true);
}

std::string EventJournal::ToJson() const {
  std::vector<Event> events = Snapshot();
  std::string out = "{\n";
  out += StrFormat("  \"capacity_per_thread\": %zu,\n", capacity_);
  out += StrFormat("  \"threads\": %zu,\n", thread_count());
  out += StrFormat("  \"dropped_torn\": %lld,\n",
                   static_cast<long long>(dropped_torn()));
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
