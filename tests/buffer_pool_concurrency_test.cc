// Multi-threaded buffer-pool stress: concurrent Fetch/pin/unpin with
// eviction pressure, same-page cold fetch races, and cold reset, each run
// against 1, 2 and 8 shards (1 shard is the historical monolithic
// configuration). Verifies page *content* integrity (a stamp in every
// page) and that I/O accounting is *exact* under contention —
// logical_reads == buffer_hits + physical_reads() as an equality, never an
// approximation. Run under ThreadSanitizer in CI.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::AppendZeroPages;

constexpr uint32_t kPageSize = 256;

int64_t ReadStamp(const char* data) {
  int64_t v;
  std::memcpy(&v, data, sizeof(v));
  return v;
}

void WriteStamp(char* data, int64_t v) { std::memcpy(data, &v, sizeof(v)); }

/// Param: shard count. Capacities below are chosen so that the worst-case
/// concentration of simultaneous pins into one shard still fits in that
/// shard's frame quota — fetches must then never fail, which is what makes
/// the exact accounting assertions valid.
class BufferPoolConcurrencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferPoolConcurrencyTest, ConcurrentFetchKeepsContentsIntact) {
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 512;
  std::vector<char> buf(kPageSize, 0);
  for (PageNo p = 0; p < kPages; ++p) {
    WriteStamp(buf.data(), 1000 + p);
    ASSERT_OK(disk.AppendPage(seg, buf.data()).status());
  }

  // Capacity well below the page count so eviction runs constantly under
  // contention; 8 threads hold at most 2 pins each, and 16 <= 128/8 frames
  // per shard, so no fetch can exhaust a shard.
  BufferPool pool(&disk, 128, BufferPoolOptions{GetParam()});
  ASSERT_EQ(pool.num_shards(), GetParam());

  const int kThreads = 8;
  const int kIters = 4000;
  std::vector<std::thread> threads;
  std::atomic<int64_t> fetches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      for (int i = 0; i < kIters; ++i) {
        PageNo p = static_cast<PageNo>(rng.NextBounded(kPages));
        auto guard = pool.Fetch(PageId{seg, p});
        if (!guard.ok()) {
          ++failures;
          return;
        }
        ++fetches;
        if (ReadStamp(guard->data()) != 1000 + p) {
          ++failures;
          return;
        }
        // Sometimes hold a second pin concurrently (two guards alive).
        if (i % 7 == 0) {
          PageNo q = static_cast<PageNo>(rng.NextBounded(kPages));
          auto second = pool.Fetch(PageId{seg, q});
          if (!second.ok() || ReadStamp(second->data()) != 1000 + q) {
            ++failures;
            return;
          }
          ++fetches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Exact accounting under contention (regression for the miss-path charge
  // ordering): every successful Fetch charged exactly one logical read, and
  // each was either a hit or exactly one physical read — no duplicate loads
  // of a page two threads raced on, and no charge was dropped or doubled
  // across the latch-free miss window.
  IoStats* io = disk.io_stats();
  EXPECT_EQ(static_cast<int64_t>(io->logical_reads), fetches.load());
  EXPECT_EQ(static_cast<int64_t>(io->buffer_hits) + io->physical_reads(),
            fetches.load());
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_reads), 0);
}

TEST_P(BufferPoolConcurrencyTest, SamePageColdFetchYieldsOnePhysicalRead) {
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 64;
  std::vector<char> buf(kPageSize, 0);
  for (PageNo p = 0; p < kPages; ++p) {
    WriteStamp(buf.data(), 9000 + p);
    ASSERT_OK(disk.AppendPage(seg, buf.data()).status());
  }
  // Slow the simulated device so every thread reliably arrives before the
  // loader's read is due (the window would otherwise be nanoseconds and
  // the waiters' path would rarely run).
  disk.set_read_latency_us(200);

  // Capacity >= page count: no eviction, so the counters below are exact.
  BufferPool pool(&disk, 128, BufferPoolOptions{GetParam()});

  const int kThreads = 8;
  std::barrier sync(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (PageNo p = 0; p < kPages; ++p) {
        // All threads release the barrier together and race Fetch on the
        // same absent page; exactly one must become the loader.
        sync.arrive_and_wait();
        auto guard = pool.Fetch(PageId{seg, p});
        if (!guard.ok() || ReadStamp(guard->data()) != 9000 + p) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // One physical read per page despite 8 concurrent fetchers of it; every
  // non-loader was a buffer hit (either waited on the loading frame or
  // arrived after it became ready).
  IoStats* io = disk.io_stats();
  EXPECT_EQ(io->physical_reads(), static_cast<int64_t>(kPages));
  EXPECT_EQ(static_cast<int64_t>(io->logical_reads),
            static_cast<int64_t>(kPages) * kThreads);
  EXPECT_EQ(static_cast<int64_t>(io->buffer_hits),
            static_cast<int64_t>(kPages) * (kThreads - 1));
}

TEST_P(BufferPoolConcurrencyTest, EvictionStormUnderTinyPool) {
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 64;
  std::vector<char> buf(kPageSize, 0);
  for (PageNo p = 0; p < kPages; ++p) {
    WriteStamp(buf.data(), 42 + p);
    ASSERT_OK(disk.AppendPage(seg, buf.data()).status());
  }
  // A few frames per shard for 4 single-pin threads: nearly every fetch
  // evicts, but a shard (>= 4 frames) can always seat one more fetch.
  const size_t capacity = std::max<size_t>(8, 4 * GetParam());
  BufferPool pool(&disk, capacity, BufferPoolOptions{GetParam()});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        for (PageNo p = 0; p < kPages; ++p) {
          PageNo page = (p + static_cast<PageNo>(t * 16)) % kPages;
          auto guard = pool.Fetch(PageId{seg, page});
          if (!guard.ok() || ReadStamp(guard->data()) != 42 + page) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const IoStats& io = *disk.io_stats();
  EXPECT_EQ(static_cast<int64_t>(io.logical_reads),
            static_cast<int64_t>(io.buffer_hits) + io.physical_reads());
}

TEST_P(BufferPoolConcurrencyTest, ShardAggregatesAndColdReset) {
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 32;
  AppendZeroPages(&disk, seg, kPages);
  BufferPool pool(&disk, 64, BufferPoolOptions{GetParam()});

  for (PageNo p = 0; p < kPages; ++p) {
    auto g = pool.Fetch(PageId{seg, p});
    ASSERT_OK(g.status());
  }
  // cached_pages() sums the per-shard tables (one latch at a time).
  EXPECT_EQ(pool.cached_pages(), static_cast<size_t>(kPages));

  {
    auto pinned = pool.Fetch(PageId{seg, 0});
    ASSERT_OK(pinned.status());
    EXPECT_FALSE(pool.ColdReset().ok());  // pinned page anywhere blocks it
  }
  ASSERT_OK(pool.ColdReset());
  EXPECT_EQ(pool.cached_pages(), 0u);

  // The next fetch of every page is physical again.
  int64_t phys_before = disk.io_stats()->physical_reads();
  for (PageNo p = 0; p < kPages; ++p) {
    auto g = pool.Fetch(PageId{seg, p});
    ASSERT_OK(g.status());
  }
  EXPECT_EQ(disk.io_stats()->physical_reads() - phys_before,
            static_cast<int64_t>(kPages));
}

INSTANTIATE_TEST_SUITE_P(Shards, BufferPoolConcurrencyTest,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace dpcf
