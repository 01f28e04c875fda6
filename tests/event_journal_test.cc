// Flight-recorder event journal (obs/event_journal.h).
//
// The journal's contract is "always on, never torn": any thread may
// Record() while another thread snapshots, and every event delivered is
// whole. The multi-thread tests run under TSAN in CI.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "obs/event_journal.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using Event = EventJournal::Event;

TEST(EventJournalTest, RecordsAndSnapshotsInOrder) {
  EventJournal j(16);
  j.Record(JournalEvent::kRingSubmit, 7, 0);
  j.Record(JournalEvent::kEviction, 7, 12);
  j.Record(JournalEvent::kLoadWait, 7, 90);
  std::vector<Event> events = j.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, JournalEvent::kRingSubmit);
  EXPECT_EQ(events[1].type, JournalEvent::kEviction);
  EXPECT_EQ(events[2].type, JournalEvent::kLoadWait);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[2].b, 90u);
  // Timestamps are monotone for a single writer.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
  // Snapshot does not consume.
  EXPECT_EQ(j.Snapshot().size(), 3u);
  EXPECT_LT(events[0].thread_index, j.thread_count());
  EXPECT_EQ(events[0].thread_index, events[2].thread_index);
}

TEST(EventJournalTest, WraparoundKeepsTheNewestEvents) {
  EventJournal j(8);
  for (uint64_t i = 0; i < 20; ++i) {
    j.Record(JournalEvent::kRingSubmit, i, 0);
  }
  std::vector<Event> events = j.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);  // events 12..19 survive
  }
  // The ring counts what it overwrote, and the dump says so.
  EXPECT_EQ(j.dropped_overwritten(), 12);
  EXPECT_NE(j.ToJson().find("\"dropped_overwritten\": 12,"),
            std::string::npos);
}

TEST(EventJournalTest, LiveThreadsGetDistinctIndexes) {
  EventJournal j(64);
  constexpr int kThreads = 4;
  // Every thread stays alive until all have recorded, so no two of them
  // may share an index.
  std::atomic<int> recorded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j, &recorded, t] {
      j.Record(JournalEvent::kMonitorBuild, static_cast<uint64_t>(t), 0);
      recorded.fetch_add(1);
      while (recorded.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Event> events = j.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  std::vector<uint32_t> indexes;
  for (const Event& e : events) {
    EXPECT_LT(e.thread_index, j.thread_count());
    for (uint32_t seen : indexes) {
      EXPECT_NE(e.thread_index, seen) << "two live threads share an index";
    }
    indexes.push_back(e.thread_index);
  }
}

// Short-lived threads (a parallel scan's workers, one set per scan) share
// the one ring: every event of every writer is kept while it fits.
TEST(EventJournalTest, ShortLivedThreadsKeepEveryEvent) {
  EventJournal j(64);
  constexpr int kThreads = 8;
  constexpr uint64_t kEventsPerThread = 5;
  for (int t = 0; t < kThreads; ++t) {
    std::thread writer([&j, t] {
      for (uint64_t i = 0; i < kEventsPerThread; ++i) {
        j.Record(JournalEvent::kEviction, static_cast<uint64_t>(t), i);
      }
    });
    writer.join();
  }
  std::vector<Event> events = j.Snapshot();
  ASSERT_EQ(events.size(), kThreads * kEventsPerThread);
  std::vector<uint64_t> per_thread(kThreads, 0);
  for (const Event& e : events) {
    EXPECT_LT(e.thread_index, j.thread_count());
    ASSERT_LT(e.a, static_cast<uint64_t>(kThreads));
    ++per_thread[e.a];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<size_t>(t)], kEventsPerThread) << t;
  }
  EXPECT_EQ(j.dropped_overwritten(), 0);
}

// The TSAN centerpiece: writers hammer the ring (wrapping many times)
// while a reader snapshots concurrently. Every event carries an invariant
// (b == a ^ kMask) that a torn copy would violate, so every event a
// snapshot returns must be intact; once the writers are done, the events
// kept plus those overwritten are exactly the events recorded.
TEST(EventJournalTest, ConcurrentSnapshotObservesNoTornEvents) {
  constexpr uint64_t kMask = 0x5a5a5a5a5a5a5a5aull;
  EventJournal j(32);  // tiny ring => constant wraparound under load
  constexpr int kWriters = 4;
  constexpr uint64_t kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&j, w] {
      const uint64_t base = static_cast<uint64_t>(w) << 32;
      for (uint64_t i = 0; i < kEventsPerWriter; ++i) {
        const uint64_t a = base | i;
        j.Record(JournalEvent::kLoadWait, a, a ^ kMask);
      }
    });
  }
  std::thread reader([&j, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Event& e : j.Snapshot()) {
        ASSERT_EQ(e.type, JournalEvent::kLoadWait);
        ASSERT_EQ(e.b, e.a ^ kMask) << "torn event delivered";
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  const std::vector<Event> kept = j.Snapshot();
  for (const Event& e : kept) ASSERT_EQ(e.b, e.a ^ kMask);
  EXPECT_EQ(kept.size(), j.capacity());
  EXPECT_EQ(static_cast<uint64_t>(j.dropped_overwritten()) + kept.size(),
            kWriters * kEventsPerWriter);
}

TEST(EventJournalTest, ToJsonHasTheDocumentedShape) {
  EventJournal j(16);
  j.Record(JournalEvent::kRingSubmit, 128, 64);
  j.Record(JournalEvent::kDriftAlert, 4500, 6);
  std::string json = j.ToJson();
  EXPECT_NE(json.find("\"capacity\": 16,"), std::string::npos);
  EXPECT_NE(json.find(StrFormat("\"threads\": %zu,", j.thread_count())),
            std::string::npos);
  EXPECT_NE(json.find("\"dropped_overwritten\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"ring_submit\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"drift_alert\""), std::string::npos);
  EXPECT_NE(json.find("\"a\": 128"), std::string::npos);
  EXPECT_NE(json.find("\"b\": 64"), std::string::npos);
}

TEST(EventJournalTest, EventNamesAreStable) {
  EXPECT_STREQ(JournalEventName(JournalEvent::kRingSubmit), "ring_submit");
  EXPECT_STREQ(JournalEventName(JournalEvent::kLoadWait),
               "loading_wait");
  EXPECT_STREQ(JournalEventName(JournalEvent::kNone), "none");
  EXPECT_STREQ(JournalEventName(JournalEvent::kMonitorBuild),
               "monitor_build");
  EXPECT_STREQ(JournalEventName(JournalEvent::kMonitorMerge),
               "monitor_merge");
  EXPECT_STREQ(JournalEventName(JournalEvent::kEviction), "eviction");
  EXPECT_STREQ(JournalEventName(JournalEvent::kDriftAlert), "drift_alert");
  // Retired values stay unused: no event is ever recorded under them.
  for (uint32_t retired : {2u, 3u, 4u, 5u, 7u}) {
    EXPECT_STREQ(JournalEventName(static_cast<JournalEvent>(retired)),
                 "unknown")
        << retired;
  }
}

TEST(EventJournalTest, ZeroCapacityIsClampedNotFatal) {
  EventJournal j(0);
  EXPECT_GE(j.capacity(), 1u);
  j.Record(JournalEvent::kEviction, 1, 0);
  EXPECT_EQ(j.Snapshot().size(), 1u);
}

}  // namespace
}  // namespace dpcf
