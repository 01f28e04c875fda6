// Runtime lock-rank enforcement (common/thread_annotations.h).
//
// The TSA annotations prove the pool -> disk acquisition order at compile
// time, but only under clang; every gcc build (and therefore the ASAN /
// UBSAN / TSAN CI jobs) compiles them to nothing. These tests pin down the
// runtime half added in PR 7: under -DDPCF_LOCK_RANK=ON a ranked
// dpcf::Mutex acquisition must be strictly greater than every ranked mutex
// the thread already holds, and an inversion aborts the process.
//
//  - correctly ordered pool -> disk acquisition stays silent, both on bare
//    ranked mutexes and through the real BufferPool miss path (shard latch,
//    eviction, disk latch, the journal latch under the shard latch, cold
//    reset);
//  - a deliberate disk -> pool inversion dies with the lock-rank
//    diagnostic (death test);
//  - nesting two latches of the same rank (two buffer-pool shards) dies,
//    which is the "no code path holds two shard latches" rule.
//
// Without DPCF_LOCK_RANK the ranks are inert; the enforcement tests skip
// so the default tier-1 build stays green.

#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_journal.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

constexpr uint32_t kPageSize = 256;

// The death-test bodies violate the documented order on purpose; keep
// clang's compile-time analysis out of them so the TSA CI job still
// compiles this file (the runtime checker is exactly for the builds where
// TSA cannot see the bug).
void AcquireInOrder(Mutex* outer, Mutex* inner) NO_THREAD_SAFETY_ANALYSIS {
  MutexLock a(outer);
  MutexLock b(inner);
}

// Calls Fetch while holding the disk latch — the disk-before-pool
// inversion. Under clang this does not even compile (Fetch EXCLUDES the
// disk latch), which is why the TSA escape hatch is needed to hand the
// sequence to the *runtime* checker.
[[maybe_unused]] void FetchWhileHoldingDiskLatch(
    BufferPool* pool, PageId pid) NO_THREAD_SAFETY_ANALYSIS {
  MutexLock d(pool->disk_latch());
  auto guard = pool->Fetch(pid);
  (void)guard;
}

TEST(LockRankTest, RanksAreAssignedAndOrdered) {
  // The storage pair is the load-bearing edge: pool shard strictly before
  // disk, mirroring ACQUIRED_BEFORE(disk->mu_). Every buffer-pool load
  // takes the disk latch under its shard latch.
  EXPECT_LT(lock_rank::kBufferPoolShard, lock_rank::kDisk);
  // Leaf subsystems all rank above the storage latches so they may be
  // taken from anywhere in the engine.
  EXPECT_LT(lock_rank::kDisk, lock_rank::kEstimationTracker);
  EXPECT_LT(lock_rank::kDisk, lock_rank::kMetricsRegistry);
  EXPECT_LT(lock_rank::kDisk, lock_rank::kTraceCollector);
  // Obs leaf band: the drift monitor registers per-series gauges while
  // holding its own latch, so it must rank strictly below the registry.
  // The journal's latch is taken by every Record: under a shard latch
  // (evictions, scheduled prefetches) and under the drift monitor's latch
  // (drift alerts), so it ranks above both, and above every other leaf so
  // Snapshot may be called while holding any of them.
  EXPECT_LT(lock_rank::kEstimationTracker, lock_rank::kDriftMonitor);
  EXPECT_LT(lock_rank::kDriftMonitor, lock_rank::kMetricsRegistry);
  EXPECT_LT(lock_rank::kTraceCollector, lock_rank::kEventJournal);
  EXPECT_LT(lock_rank::kDriftMonitor, lock_rank::kEventJournal);

  DiskManager disk(kPageSize);
  EXPECT_EQ(disk.latch()->rank(), lock_rank::kDisk);
  Mutex unranked;
  EXPECT_EQ(unranked.rank(), lock_rank::kUnranked);
}

TEST(LockRankTest, OrderedAcquisitionStaysSilent) {
  Mutex pool_mu(lock_rank::kBufferPoolShard);
  Mutex disk_mu(lock_rank::kDisk);
  // Repeat to prove the held-rank stack drains correctly between scopes.
  for (int i = 0; i < 3; ++i) {
    AcquireInOrder(&pool_mu, &disk_mu);
  }
  // Unranked mutexes opt out entirely: nesting them under any rank is
  // allowed, and ranked mutexes may still be acquired (in order) around
  // them.
  Mutex unranked;
  {
    MutexLock p(&pool_mu);
    MutexLock u(&unranked);
    MutexLock d(&disk_mu);
  }
  SUCCEED();
}

TEST(LockRankTest, RealPoolToDiskPathStaysSilent) {
  // Exercise the real pool's latch traffic under the rank checker: misses
  // that evict and readahead (the disk latch taken under the shard latch
  // for each read, and the journal's latch under the shard latch for each
  // eviction and scheduled prefetch) and a cold reset (one shard latch at
  // a time, then the disk latch to make the device cold).
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  const PageNo kPages = 64;
  std::vector<char> buf(kPageSize, 7);
  for (PageNo p = 0; p < kPages; ++p) {
    ASSERT_OK(disk.AppendPage(seg, buf.data()).status());
  }
  BufferPool pool(&disk, 16, BufferPoolOptions{/*num_shards=*/2});
  EventJournal journal(256);
  disk.AttachMetrics(nullptr, &journal);
  pool.AttachObservability(nullptr, nullptr, &journal);
  for (PageNo p = 0; p < kPages; ++p) {  // misses, most of them evicting
    auto guard = pool.Fetch(PageId{seg, p});
    ASSERT_OK(guard.status());
  }
  pool.PrefetchBatch({PageId{seg, 0}, PageId{seg, 1}});
  ASSERT_OK(pool.ColdReset());
  int evictions = 0;
  int submits = 0;
  for (const EventJournal::Event& e : journal.Snapshot()) {
    evictions += e.type == JournalEvent::kEviction;
    submits += e.type == JournalEvent::kRingSubmit;
  }
  // Both kinds were recorded under a shard latch.
  EXPECT_GT(evictions, 0);
  EXPECT_GT(submits, 0);
}

#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, PoolAfterDiskInversionAborts) {
  Mutex pool_mu(lock_rank::kBufferPoolShard);
  Mutex disk_mu(lock_rank::kDisk);
  EXPECT_DEATH(AcquireInOrder(&disk_mu, &pool_mu),
               "dpcf lock-rank violation");
}

TEST(LockRankDeathTest, RealPoolFetchWhileHoldingDiskLatchAborts) {
  // The real thing, end to end: grab the disk latch through the pool's
  // annotated accessor, then Fetch — the shard latch acquisition inside
  // Fetch is rank 100 under a held rank 200 and must die. Under clang this
  // exact call sequence is already a compile error (EXCLUDES(disk_->mu_));
  // the runtime checker is the gcc/sanitizer-build equivalent.
  DiskManager disk(kPageSize);
  SegmentId seg = disk.CreateSegment("t");
  testing::AppendZeroPages(&disk, seg, 1);
  BufferPool pool(&disk, 4);
  EXPECT_DEATH(FetchWhileHoldingDiskLatch(&pool, PageId{seg, 0}),
               "dpcf lock-rank violation");
}

TEST(LockRankDeathTest, DriftMonitorAfterRegistryAborts) {
  // The drift monitor registers its per-series EWMA gauge from inside
  // Observe() while holding its own latch (315 -> 320 is the sanctioned
  // direction). The reverse — touching the monitor from registry render
  // code — is rank 315 under a held rank 320 and must die.
  Mutex registry_mu(lock_rank::kMetricsRegistry);
  Mutex drift_mu(lock_rank::kDriftMonitor);
  EXPECT_DEATH(AcquireInOrder(&registry_mu, &drift_mu),
               "dpcf lock-rank violation");
}

TEST(LockRankDeathTest, JournalDrainUnderDrainAborts) {
  // The journal's latch is the highest rank: re-entering a journal from
  // code already holding its latch (or any same-ranked one) must die.
  Mutex drain_a(lock_rank::kEventJournal);
  Mutex drain_b(lock_rank::kEventJournal);
  EXPECT_DEATH(AcquireInOrder(&drain_a, &drain_b),
               "dpcf lock-rank violation");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  // All shard latches share one rank: holding two at once is the bug the
  // aggregate paths (cached_pages / ColdReset) avoid by visiting shards
  // one at a time. Equal rank is not "strictly greater".
  Mutex shard_a(lock_rank::kBufferPoolShard);
  Mutex shard_b(lock_rank::kBufferPoolShard);
  EXPECT_DEATH(AcquireInOrder(&shard_a, &shard_b),
               "dpcf lock-rank violation");
}

#else

TEST(LockRankDeathTest, SkippedWithoutLockRank) {
  GTEST_SKIP() << "built without -DDPCF_LOCK_RANK=ON; ranks are inert";
}

#endif  // DPCF_LOCK_RANK

}  // namespace
}  // namespace dpcf
