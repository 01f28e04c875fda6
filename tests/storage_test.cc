// Unit tests for storage/: disk manager I/O classification, buffer pool
// (LRU, pinning, failed reads, cold reset, allocation-free steady state),
// simulated cost model.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include <gtest/gtest.h>

#include "obs/event_journal.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

// Every heap allocation this test binary makes is counted, so a test can
// assert that a code path allocates nothing. The nothrow forms forward to
// these in libstdc++; the aligned forms are left alone (nothing here uses
// them, and they pair with their own deletes). The deletes stay out of
// line: inlined, GCC would see free() meet a pointer from operator new and
// warn (-Wmismatched-new-delete).
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dpcf {
namespace {

using testing::AppendZeroPages;

// The disk's read as a buffer-pool miss issues it.
Status DemandRead(DiskManager* disk, PageId pid) {
  return disk->ReadImage(pid, ReadClass::kDemand).status();
}

TEST(DiskManagerTest, SegmentsAndAllocation) {
  DiskManager disk(512);
  SegmentId a = disk.CreateSegment("a");
  SegmentId b = disk.CreateSegment("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(disk.SegmentName(a), "a");
  EXPECT_EQ(disk.SegmentPageCount(a), 0u);
  const std::vector<char> image(512, 0);
  ASSERT_OK_AND_ASSIGN(const PageNo a0, disk.AppendPage(a, image.data()));
  ASSERT_OK_AND_ASSIGN(const PageNo a1, disk.AppendPage(a, image.data()));
  ASSERT_OK_AND_ASSIGN(const PageNo b0, disk.AppendPage(b, image.data()));
  EXPECT_EQ(a0, 0u);
  EXPECT_EQ(a1, 1u);
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(disk.SegmentPageCount(a), 2u);
  EXPECT_EQ(disk.io_stats()->physical_writes, 3);  // one write per page
}

TEST(DiskManagerTest, ReadWriteRoundtrip) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  std::vector<char> in(256, 0x5A);
  const std::vector<char> expected = in;
  ASSERT_OK_AND_ASSIGN(const PageNo p, disk.AppendPage(seg, in.data()));
  in.assign(256, 0);  // the disk stored its own copy of the image
  ASSERT_OK_AND_ASSIGN(const PageRead out,
                       disk.ReadImage(PageId{seg, p}, ReadClass::kDemand));
  EXPECT_EQ(std::memcmp(expected.data(), out.image, 256), 0);
}

TEST(DiskManagerTest, RejectsUnknownPages) {
  DiskManager disk(256);
  std::vector<char> buf(256);
  EXPECT_EQ(DemandRead(&disk, PageId{0, 0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disk.AppendPage(0, buf.data()).status().code(),
            StatusCode::kOutOfRange);
  SegmentId seg = disk.CreateSegment("t");
  EXPECT_EQ(DemandRead(&disk, PageId{seg, 3}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disk.AppendPage(seg + 1, buf.data()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disk.SegmentPageCount(seg), 0u);
  EXPECT_EQ(disk.io_stats()->physical_writes, 0);
}

TEST(DiskManagerTest, SequentialVsRandomClassification) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  AppendZeroPages(&disk, seg, 10);
  // First read: random (head position unknown).
  ASSERT_OK(DemandRead(&disk, PageId{seg, 0}));
  // 1..4: each follows its predecessor => sequential.
  for (PageNo p = 1; p <= 4; ++p) {
    ASSERT_OK(DemandRead(&disk, PageId{seg, p}));
  }
  // Jump: random, then a new sequential run.
  ASSERT_OK(DemandRead(&disk, PageId{seg, 8}));
  ASSERT_OK(DemandRead(&disk, PageId{seg, 9}));
  const IoStats& io = *disk.io_stats();
  EXPECT_EQ(io.physical_rand_reads, 2);
  EXPECT_EQ(io.physical_seq_reads, 5);
}

TEST(DiskManagerTest, CrossSegmentReadIsRandom) {
  DiskManager disk(256);
  SegmentId a = disk.CreateSegment("a");
  SegmentId b = disk.CreateSegment("b");
  AppendZeroPages(&disk, a, 2);
  AppendZeroPages(&disk, b, 1);
  ASSERT_OK(DemandRead(&disk, PageId{a, 0}));
  ASSERT_OK(DemandRead(&disk, PageId{b, 0}));  // random: new segment
  ASSERT_OK(DemandRead(&disk, PageId{a, 1}));  // random: jumped away
  EXPECT_EQ(disk.io_stats()->physical_rand_reads, 3);
  EXPECT_EQ(disk.io_stats()->physical_seq_reads, 0);
}

TEST(DiskManagerTest, ResetReadHeadMakesNextReadRandom) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  AppendZeroPages(&disk, seg, 2);
  ASSERT_OK(DemandRead(&disk, PageId{seg, 0}));
  disk.ResetReadHead();
  ASSERT_OK(DemandRead(&disk, PageId{seg, 1}));  // would be seq
  EXPECT_EQ(disk.io_stats()->physical_rand_reads, 2);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(256), pool_(&disk_, 4) {
    seg_ = disk_.CreateSegment("t");
    AppendZeroPages(&disk_, seg_, 16);
  }
  DiskManager disk_;
  BufferPool pool_;
  SegmentId seg_;
};

TEST_F(BufferPoolTest, HitAvoidsPhysicalRead) {
  {
    auto g = pool_.Fetch(PageId{seg_, 0});
    ASSERT_TRUE(g.ok());
  }
  int64_t before = disk_.io_stats()->physical_reads();
  {
    auto g = pool_.Fetch(PageId{seg_, 0});
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(disk_.io_stats()->physical_reads(), before);
  EXPECT_EQ(disk_.io_stats()->buffer_hits, 1);
  EXPECT_EQ(disk_.io_stats()->logical_reads, 2);
}

// The pool owns no page bytes: a demand miss, a hit and a readahead-loaded
// page each hand out the disk's own image of the page, not a copy.
TEST_F(BufferPoolTest, FetchHandsOutTheDiskImage) {
  const PageId missed{seg_, 3};
  {
    ASSERT_OK_AND_ASSIGN(PageGuard miss, pool_.Fetch(missed));
    EXPECT_EQ(miss.data(), disk_.RawPage(missed));
  }
  {
    ASSERT_OK_AND_ASSIGN(PageGuard hit, pool_.Fetch(missed));
    EXPECT_EQ(hit.data(), disk_.RawPage(missed));
  }
  const PageId prefetched{seg_, 7};
  pool_.PrefetchBatch({prefetched});
  ASSERT_OK_AND_ASSIGN(PageGuard loaded, pool_.Fetch(prefetched));
  EXPECT_EQ(loaded.data(), disk_.RawPage(prefetched));
  const IoStats& io = *disk_.io_stats();
  EXPECT_EQ(io.physical_reads(), 1);
  EXPECT_EQ(io.buffer_hits, 2);
  EXPECT_EQ(io.prefetch_reads, 1);
  EXPECT_EQ(io.prefetch_hits, 1);
}

TEST_F(BufferPoolTest, LruEvictsOldestUnpinned) {
  for (PageNo p = 0; p < 4; ++p) {
    auto g = pool_.Fetch(PageId{seg_, p});
    ASSERT_TRUE(g.ok());
  }
  // Touch page 0 so page 1 is the LRU victim.
  { auto g = pool_.Fetch(PageId{seg_, 0}); ASSERT_TRUE(g.ok()); }
  { auto g = pool_.Fetch(PageId{seg_, 9}); ASSERT_TRUE(g.ok()); }  // evicts 1
  int64_t before = disk_.io_stats()->physical_reads();
  { auto g = pool_.Fetch(PageId{seg_, 0}); ASSERT_TRUE(g.ok()); }  // hit
  EXPECT_EQ(disk_.io_stats()->physical_reads(), before);
  { auto g = pool_.Fetch(PageId{seg_, 1}); ASSERT_TRUE(g.ok()); }  // miss
  EXPECT_EQ(disk_.io_stats()->physical_reads(), before + 1);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  std::vector<PageGuard> pins;
  for (PageNo p = 0; p < 4; ++p) {
    auto g = pool_.Fetch(PageId{seg_, p});
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(g).value());
  }
  auto g = pool_.Fetch(PageId{seg_, 10});
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  pins.clear();
  EXPECT_TRUE(pool_.Fetch(PageId{seg_, 10}).ok());
}

TEST_F(BufferPoolTest, ColdResetEmptiesPool) {
  { auto g = pool_.Fetch(PageId{seg_, 2}); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool_.cached_pages(), 1u);
  ASSERT_OK(pool_.ColdReset());
  EXPECT_EQ(pool_.cached_pages(), 0u);
  int64_t before = disk_.io_stats()->physical_reads();
  { auto g = pool_.Fetch(PageId{seg_, 2}); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(disk_.io_stats()->physical_reads(), before + 1);
}

TEST_F(BufferPoolTest, FailedDemandReadLeavesNoTrace) {
  for (PageNo p = 0; p < 3; ++p) {
    auto g = pool_.Fetch(PageId{seg_, p});
    ASSERT_TRUE(g.ok());
  }
  const IoStats& io = *disk_.io_stats();
  const int64_t logical = io.logical_reads;
  const int64_t seq = io.physical_seq_reads;
  const int64_t rand = io.physical_rand_reads;
  // Page 16 lies past the segment's end. A miss claims its frame only
  // once the read has succeeded, so the free frame stays free and
  // unpublished, and the second attempt is a fresh miss, not a stale hit.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bad = pool_.Fetch(PageId{seg_, 16});
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(io.logical_reads, logical);
  EXPECT_EQ(io.physical_seq_reads, seq);
  EXPECT_EQ(io.physical_rand_reads, rand);
  EXPECT_EQ(pool_.cached_pages(), 3u);
  for (PageNo p = 0; p < 3; ++p) {
    auto g = pool_.Fetch(PageId{seg_, p});
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(io.physical_reads(), seq + rand);  // all three hit
  EXPECT_EQ(io.buffer_hits, 3);
  ASSERT_OK(pool_.ColdReset());
  EXPECT_EQ(pool_.cached_pages(), 0u);
}

// With every frame holding a page, a demand fetch or a prefetch of a page
// that does not exist must not evict a cached page before its read fails:
// all four pages stay resident, re-fetching them reads nothing, and no
// eviction is journaled.
TEST_F(BufferPoolTest, FailedReadOnAFullPoolEvictsNothing) {
  EventJournal journal(64);
  pool_.AttachObservability(nullptr, nullptr, &journal);
  const PageId missing{seg_, 16};  // past the segment's end
  for (const bool prefetch : {false, true}) {
    ASSERT_OK(pool_.ColdReset());
    for (PageNo p = 0; p < 4; ++p) {
      ASSERT_OK(pool_.Fetch(PageId{seg_, p}).status());
    }
    ASSERT_EQ(pool_.cached_pages(), 4u);
    if (prefetch) {
      pool_.PrefetchBatch({missing});
    } else {
      EXPECT_EQ(pool_.Fetch(missing).status().code(),
                StatusCode::kOutOfRange);
    }
    EXPECT_EQ(pool_.cached_pages(), 4u) << "prefetch=" << prefetch;
    const int64_t reads = disk_.io_stats()->physical_reads();
    for (PageNo p = 0; p < 4; ++p) {
      ASSERT_OK(pool_.Fetch(PageId{seg_, p}).status());
    }
    EXPECT_EQ(disk_.io_stats()->physical_reads(), reads)
        << "prefetch=" << prefetch;
  }
  for (const EventJournal::Event& e : journal.Snapshot()) {
    EXPECT_NE(e.type, JournalEvent::kEviction) << "page " << e.a;
  }
}

TEST_F(BufferPoolTest, ColdResetRefusesPinnedPages) {
  auto g = pool_.Fetch(PageId{seg_, 2});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(pool_.ColdReset().ok());
  g->Release();
  EXPECT_OK(pool_.ColdReset());
}

TEST_F(BufferPoolTest, GuardMoveTransfersPin) {
  auto g1 = pool_.Fetch(PageId{seg_, 3});
  ASSERT_TRUE(g1.ok());
  PageGuard g2 = std::move(g1).value();
  EXPECT_TRUE(g2.valid());
  PageGuard g3 = std::move(g2);
  EXPECT_FALSE(g2.valid());
  EXPECT_TRUE(g3.valid());
  g3.Release();
  EXPECT_OK(pool_.ColdReset());  // nothing pinned anymore
}

TEST(BufferPoolAllocTest, SteadyStatePathAllocatesNothing) {
  {  // The counting operator new is the one linked in.
    const int64_t before = g_allocations.load();
    void* volatile probe = ::operator new(16);
    ::operator delete(probe);
    ASSERT_EQ(g_allocations.load(), before + 1);
  }
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  constexpr PageNo kPages = 256;
  AppendZeroPages(&disk, seg, kPages);
  BufferPool pool(&disk, 64, BufferPoolOptions{8});
  ASSERT_EQ(pool.num_shards(), 8u);
  const IoStats& io = *disk.io_stats();
  constexpr int kN = 2000;
  // A cyclic sweep over four times the pool misses on every fetch once the
  // pool is full (every shard holds fewer frames than it has pages), and
  // each of those misses evicts the shard's LRU page.
  PageNo next = 0;
  auto sweep = [&](int n) {
    int failed = 0;
    for (int i = 0; i < n; ++i) {
      if (!pool.Fetch(PageId{seg, next}).ok()) ++failed;
      next = (next + 1) % kPages;
    }
    return failed;
  };
  // The sweep's last four pages are still resident when it stops.
  auto hits = [&](int n) {
    int failed = 0;
    for (int i = 0; i < n; ++i) {
      const PageNo p = (next + kPages - 1 - static_cast<PageNo>(i % 4)) %
                       kPages;
      if (!pool.Fetch(PageId{seg, p}).ok()) ++failed;
    }
    return failed;
  };
  // Warm-up round: fill, hit, reset, refill.
  ASSERT_EQ(sweep(static_cast<int>(kPages)), 0);
  ASSERT_EQ(hits(kN), 0);
  ASSERT_OK(pool.ColdReset());
  ASSERT_EQ(sweep(static_cast<int>(kPages)), 0);
  ASSERT_EQ(pool.cached_pages(), pool.capacity());

  const int64_t hits_before = io.buffer_hits;
  const int64_t allocs_before = g_allocations.load();
  const int failed_hits = hits(kN);
  const int64_t hits_after = io.buffer_hits;
  const int64_t phys_before = io.physical_reads();
  const int failed_misses = sweep(kN);
  const int64_t phys_after = io.physical_reads();
  const size_t cached_before_reset = pool.cached_pages();
  const Status reset = pool.ColdReset();
  const int64_t allocs = g_allocations.load() - allocs_before;

  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(failed_hits, 0);
  EXPECT_EQ(failed_misses, 0);
  EXPECT_EQ(hits_after - hits_before, kN);
  EXPECT_EQ(phys_after - phys_before, kN);
  EXPECT_EQ(cached_before_reset, pool.capacity());
  EXPECT_OK(reset);
  EXPECT_EQ(pool.cached_pages(), 0u);
}

TEST(SimCostTest, TimeIsLinearInCounters) {
  SimCostParams p;
  IoStats io;
  CpuStats cpu;
  EXPECT_EQ(SimulatedMillis(io, cpu, p), 0.0);
  io.physical_seq_reads = 10;
  double t1 = SimulatedMillis(io, cpu, p);
  EXPECT_DOUBLE_EQ(t1, 10 * p.seq_read_ms);
  io.physical_rand_reads = 3;
  cpu.rows_processed = 1000;
  double t2 = SimulatedMillis(io, cpu, p);
  EXPECT_DOUBLE_EQ(t2, 10 * p.seq_read_ms + 3 * p.rand_read_ms +
                           1000 * p.cpu_row_ms);
}

TEST(SimCostTest, RandomCostsMoreThanSequential) {
  SimCostParams p;
  EXPECT_GT(p.rand_read_ms, p.seq_read_ms);
}

TEST(IoStatsTest, AccumulateAndReset) {
  IoStats a, b;
  a.physical_seq_reads = 1;
  b.physical_seq_reads = 2;
  b.logical_reads = 5;
  a += b;
  EXPECT_EQ(a.physical_seq_reads, 3);
  EXPECT_EQ(a.logical_reads, 5);
  a.Reset();
  EXPECT_EQ(a.physical_seq_reads, 0);
  EXPECT_NE(a.ToString().find("IoStats"), std::string::npos);
}

}  // namespace
}  // namespace dpcf
