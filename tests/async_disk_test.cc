// The disk's device model (storage/disk_manager.h: a read returns at once
// with the time the simulated device finishes it), the readahead path
// built on it (BufferPool::PrefetchBatch), and the parallel scan's
// readahead window, paced by its workers (exec/parallel_scan.h).
//
//  - a demand read is due one latency after it is issued; prefetches queue
//    on the device channels, so with one channel n of them end no earlier
//    than n latencies after submission; with no latency nothing is due;
//  - a wait never returns before its due time, returns at once for 0 or a
//    time already past, and (on Linux) leaves its thread with 1 ns of
//    timer slack once it has waited for a non-zero due time;
//  - a fetch of a page whose read is not yet due waits once, however many
//    other reads the shard has in flight, and the exact accounting
//    invariant logical_reads == buffer_hits + physical_reads() holds;
//  - ColdReset forgets reads that are not yet due instead of waiting them
//    out, and leaves the device idle;
//  - with no latency a parallel readahead scan never waits behind a load;
//  - a one-worker scan with readahead prefetches every page before its
//    fetch, so it charges no demand read;
//  - merged scan feedback is bit-for-bit identical to the serial oracle
//    for every thread count x window combination.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/parallel_scan.h"
#include "exec/scan_ops.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace dpcf {
namespace {

using testing::SyntheticDbTest;

constexpr uint32_t kPageSize = 256;

// Appends kPages pages whose first byte is the page number.
SegmentId FillSegment(DiskManager* disk, PageNo pages) {
  SegmentId seg = disk->CreateSegment("t");
  std::vector<char> buf(disk->page_size(), 0);
  for (PageNo p = 0; p < pages; ++p) {
    buf[0] = static_cast<char>(p);
    const Result<PageNo> appended = disk->AppendPage(seg, buf.data());
    EXPECT_TRUE(appended.ok() && *appended == p);
  }
  return seg;
}

void CheckExactInvariant(const IoStats& io, const char* what) {
  EXPECT_EQ(static_cast<int64_t>(io.logical_reads),
            static_cast<int64_t>(io.buffer_hits) + io.physical_reads())
      << what;
  EXPECT_LE(static_cast<int64_t>(io.prefetch_hits),
            static_cast<int64_t>(io.prefetch_reads))
      << what;
}

// ------------------------------------------------------------ device model

TEST(AsyncDiskTest, DemandReadIsDueOneLatencyLater) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1});
  SegmentId seg = FillSegment(&disk, 2);
  // No latency: nothing to wait for, and no clock is read for it.
  ASSERT_OK_AND_ASSIGN(PageRead now, disk.ReadImage(PageId{seg, 0},
                                                    ReadClass::kDemand));
  EXPECT_EQ(now.due_us, 0);
  EXPECT_EQ(now.image[0], 0);

  constexpr int64_t kLatencyUs = 50'000;
  disk.set_read_latency_us(kLatencyUs);
  const int64_t before_us = DiskManager::NowUs();
  ASSERT_OK_AND_ASSIGN(PageRead later, disk.ReadImage(PageId{seg, 1},
                                                      ReadClass::kDemand));
  const int64_t after_us = DiskManager::NowUs();
  EXPECT_GE(later.due_us, before_us + kLatencyUs);
  EXPECT_LE(later.due_us, after_us + kLatencyUs);
  EXPECT_EQ(later.image[0], 1);
  // The read returned without sleeping; the charge is made at once.
  EXPECT_LT(after_us - before_us, kLatencyUs);
  EXPECT_EQ(disk.io_stats()->physical_reads(), 2);
}

// One channel serves prefetches one after another: the i-th is due no
// earlier than (i + 1) latencies after the batch was submitted, and a
// demand fetch of the last page waits for it exactly once.
TEST(AsyncDiskTest, OneChannelQueuesPrefetchesBackToBack) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1});
  const PageNo kPages = 8;
  SegmentId seg = FillSegment(&disk, kPages);
  constexpr int64_t kLatencyUs = 2000;
  disk.set_read_latency_us(kLatencyUs);

  const int64_t submitted_us = DiskManager::NowUs();
  int64_t prev_due_us = submitted_us;
  for (PageNo p = 0; p < kPages; ++p) {
    ASSERT_OK_AND_ASSIGN(PageRead read, disk.ReadImage(PageId{seg, p},
                                                       ReadClass::kPrefetch));
    EXPECT_GE(read.due_us, prev_due_us + kLatencyUs) << "page " << p;
    prev_due_us = read.due_us;
  }
  EXPECT_GE(prev_due_us, submitted_us + kPages * kLatencyUs);
  EXPECT_EQ(static_cast<int64_t>(disk.io_stats()->prefetch_reads),
            static_cast<int64_t>(kPages));
  EXPECT_EQ(disk.io_stats()->physical_reads(), 0);

  // Through the pool: the batch is scheduled on the idle channel, and the
  // fetch of its last page returns once that page is due.
  disk.ResetReadHead();
  disk.io_stats()->Reset();
  MetricsRegistry registry;
  BufferPool pool(&disk, /*capacity_pages=*/16,
                  BufferPoolOptions{/*num_shards=*/1});
  pool.AttachObservability(&registry, nullptr);
  std::vector<PageId> pids;
  for (PageNo p = 0; p < kPages; ++p) pids.push_back(PageId{seg, p});
  const int64_t batch_us = DiskManager::NowUs();
  pool.PrefetchBatch(pids);
  {
    ASSERT_OK_AND_ASSIGN(PageGuard last, pool.Fetch(pids.back()));
    EXPECT_GE(DiskManager::NowUs(), batch_us + kPages * kLatencyUs);
    EXPECT_EQ(last.data()[0], static_cast<char>(kPages - 1));
  }
  EXPECT_EQ(registry
                .GetCounter("buffer_pool_loading_waits_total", "",
                            {{"shard", "0"}})
                ->value(),
            1);
  EXPECT_EQ(static_cast<int64_t>(disk.io_stats()->prefetch_reads),
            static_cast<int64_t>(kPages));
  EXPECT_EQ(static_cast<int64_t>(disk.io_stats()->prefetch_hits), 1);
  CheckExactInvariant(*disk.io_stats(), "one channel");
}

// ------------------------------------------------------------ the wait
//
// Lateness has no upper bound here: a shared host can preempt a sleeper
// for as long as it likes.

TEST(AsyncDiskTest, WaitUntilNeverReturnsBeforeItsDueTime) {
  for (const int64_t wait_us : {1, 20, 200, 2000}) {
    for (int i = 0; i < 10; ++i) {
      const int64_t due_us = DiskManager::NowUs() + wait_us;
      DiskManager::WaitUntil(due_us);
      EXPECT_GE(DiskManager::NowUs(), due_us) << wait_us << " us wait";
    }
  }
}

TEST(AsyncDiskTest, WaitUntilReturnsAtOnceForZeroOrAPastDueTime) {
  // A due time one second back: a wait that slept the gap between it and
  // now would take a second.
  const int64_t start_us = DiskManager::NowUs();
  DiskManager::WaitUntil(0);
  DiskManager::WaitUntil(start_us - 1'000'000);
  EXPECT_LT(DiskManager::NowUs() - start_us, 500'000);
}

#if defined(__linux__)
// Each case runs on a fresh thread, which first sets its own slack to the
// kernel's default: a thread inherits the slack of the thread that starts
// it, and this binary's main thread has waited in earlier cases.
constexpr unsigned long kDefaultSlackNs = 50'000;

TEST(AsyncDiskTest, FirstWaitAsksForPreciseTimers) {
  int slack_ns = -1;
  std::thread([&slack_ns] {
    prctl(PR_SET_TIMERSLACK, kDefaultSlackNs);
    DiskManager::WaitUntil(DiskManager::NowUs() + 1);
    slack_ns = prctl(PR_GET_TIMERSLACK);
  }).join();
  EXPECT_EQ(slack_ns, 1);
}

TEST(AsyncDiskTest, ZeroWaitLeavesTheTimerSlackAlone) {
  int slack_ns = -1;
  std::thread([&slack_ns] {
    prctl(PR_SET_TIMERSLACK, kDefaultSlackNs);
    DiskManager::WaitUntil(0);
    slack_ns = prctl(PR_GET_TIMERSLACK);
  }).join();
  EXPECT_EQ(slack_ns, static_cast<int>(kDefaultSlackNs));
}
#endif

// ---------------------------------------------------- pool integration

TEST(AsyncDiskTest, ColdResetForgetsReadsNotYetDue) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1});
  const PageNo kPages = 8;
  SegmentId seg = FillSegment(&disk, kPages);
  // A second per read: waiting out even one of them would be unmistakable.
  constexpr int64_t kLatencyUs = 1'000'000;
  disk.set_read_latency_us(kLatencyUs);

  BufferPool pool(&disk, /*capacity_pages=*/16,
                  BufferPoolOptions{/*num_shards=*/2});
  std::vector<PageId> pids;
  for (PageNo p = 0; p < kPages; ++p) pids.push_back(PageId{seg, p});
  pool.PrefetchBatch(pids);
  ASSERT_EQ(pool.cached_pages(), kPages);
  // Let the device get under way: the first read has started, and the
  // reset must not wait for it either.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t reset_us = DiskManager::NowUs();
  ASSERT_OK(pool.ColdReset());
  EXPECT_LT(DiskManager::NowUs() - reset_us, kLatencyUs / 10)
      << "the reset waited for the device";
  EXPECT_EQ(pool.cached_pages(), 0u);
  // The reads were charged when they were scheduled.
  EXPECT_EQ(static_cast<int64_t>(disk.io_stats()->prefetch_reads),
            static_cast<int64_t>(kPages));

  // The device is idle again: a new prefetch does not queue behind the
  // eight forgotten reads.
  const int64_t after_us = DiskManager::NowUs();
  ASSERT_OK_AND_ASSIGN(PageRead read, disk.ReadImage(PageId{seg, 0},
                                                     ReadClass::kPrefetch));
  EXPECT_LT(read.due_us, after_us + 2 * kLatencyUs);

  // The pool still works after the reset.
  disk.set_read_latency_us(0);
  auto guard = pool.Fetch(PageId{seg, 5});
  ASSERT_OK(guard.status());
  EXPECT_EQ(guard.value().data()[0], 5);
  CheckExactInvariant(*disk.io_stats(), "after cold reset");
}

TEST(AsyncDiskTest, InvariantHoldsUnderEvictionChurn) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/2});
  const PageNo kPages = 128;
  SegmentId seg = FillSegment(&disk, kPages);

  // Capacity far below the segment: constant eviction, and PrefetchBatch
  // sees rejections when a shard has no evictable frame.
  BufferPool pool(&disk, /*capacity_pages=*/16,
                  BufferPoolOptions{/*num_shards=*/2});
  for (int pass = 0; pass < 2; ++pass) {
    for (PageNo p = 0; p < kPages; p += 8) {
      std::vector<PageId> window;
      for (PageNo q = p; q < std::min<PageNo>(p + 8, kPages); ++q) {
        window.push_back(PageId{seg, q});
      }
      pool.PrefetchBatch(window);
      for (const PageId& pid : window) {
        auto guard = pool.Fetch(pid);
        ASSERT_OK(guard.status());
        ASSERT_EQ(guard.value().data()[0],
                  static_cast<char>(pid.page_no));
      }
    }
  }
  CheckExactInvariant(*disk.io_stats(), "eviction churn");
}

TEST(AsyncDiskTest, LoadingWaitCountedOncePerFetch) {
  // One shard and one device channel: p0 is due one latency after the
  // batch, p1 two. A Fetch of p1 finds its read not yet due while p0's is
  // in flight in the same shard, and waits for p1 alone — one wait.
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1});
  SegmentId seg = FillSegment(&disk, 2);
  disk.set_read_latency_us(50'000);
  MetricsRegistry registry;
  EventJournal journal;
  BufferPool pool(&disk, /*capacity_pages=*/8,
                  BufferPoolOptions{/*num_shards=*/1});
  pool.AttachObservability(&registry, nullptr, &journal);

  pool.PrefetchBatch({PageId{seg, 0}, PageId{seg, 1}});
  {
    auto guard = pool.Fetch(PageId{seg, 1});
    ASSERT_OK(guard.status());
    EXPECT_EQ(guard.value().data()[0], 1);
  }
  EXPECT_EQ(registry
                .GetCounter("buffer_pool_loading_waits_total", "",
                            {{"shard", "0"}})
                ->value(),
            1);
  int64_t wait_events = 0;
  for (const EventJournal::Event& e : journal.Snapshot()) {
    if (e.type != JournalEvent::kLoadWait) continue;
    ++wait_events;
    EXPECT_EQ(e.a, 1u);
    EXPECT_GT(e.b, 0u) << "the one event carries the whole wait";
  }
  EXPECT_EQ(wait_events, 1);
  CheckExactInvariant(*disk.io_stats(), "loading wait");
}

// --------------------------------------- feedback determinism (oracle)

class AsyncScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 512;
    opts.io_threads = 4;
    db_ = std::make_unique<Database>(opts);
    SyntheticOptions sopts;
    sopts.num_rows = 20'000;
    sopts.seed = 7;
    auto table = BuildSyntheticTable(db_.get(), "T", sopts);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    t_ = *table;
    db_->disk()->set_read_latency_us(20);  // make the overlap real
  }

  static Predicate Pushed() {
    return Predicate({PredicateAtom::Int64(kC3, CmpOp::kLt, 4000),
                      PredicateAtom::Int64(kC5, CmpOp::kGe, 10'000)});
  }

  // Prefix-exact, full-conjunction, and genuinely sampled requests — the
  // sampled one is the sensitive case: a DPSample draw is a pure function
  // of (page, seed), so no readahead schedule may perturb it.
  std::unique_ptr<ScanMonitorBundle> MakeBundle() {
    auto bundle = std::make_unique<ScanMonitorBundle>(
        Pushed(), &t_->schema(), /*sample_fraction=*/0.2, /*seed=*/99);
    ScanExprRequest lead;
    lead.label = "T: C3<4000";
    lead.expr = Predicate({PredicateAtom::Int64(kC3, CmpOp::kLt, 4000)});
    EXPECT_OK(bundle->AddRequest(lead));
    ScanExprRequest sampled;
    sampled.label = "T: C4<2000";
    sampled.expr =
        Predicate({PredicateAtom::Int64(kC4, CmpOp::kLt, 2000)});
    EXPECT_OK(bundle->AddRequest(sampled));
    return bundle;
  }

  RunResult Run(Operator* op) {
    DPCF_CHECK_OK(db_->ColdCache());
    ExecContext ctx(db_->buffer_pool());
    auto result = ExecutePlan(op, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<Database> db_;
  Table* t_ = nullptr;
};

TEST_F(AsyncScanTest, FeedbackIdenticalAcrossThreadsAndWindows) {
  TableScanOp serial(t_, Pushed(), {kC1, kC5}, MakeBundle());
  RunResult oracle = Run(&serial);
  ASSERT_GT(oracle.output.size(), 0u);
  ASSERT_EQ(oracle.stats.monitors.size(), 2u);

  for (int threads : {1, 4}) {
    for (uint32_t window : {16u, 256u}) {
      ParallelTableScanOp parallel(
          t_, Pushed(), {kC1, kC5}, MakeBundle(),
          ParallelScanOptions{threads, 8, window, /*vectorized=*/true});
      RunResult run = Run(&parallel);
      const std::string what = "threads=" + std::to_string(threads) +
                               " window=" + std::to_string(window);

      ASSERT_EQ(run.output.size(), oracle.output.size()) << what;
      for (size_t i = 0; i < oracle.output.size(); ++i) {
        ASSERT_TRUE(run.output[i] == oracle.output[i])
            << what << " tuple " << i;
      }
      ASSERT_EQ(run.stats.monitors.size(), oracle.stats.monitors.size());
      for (size_t i = 0; i < oracle.stats.monitors.size(); ++i) {
        const MonitorRecord& s = oracle.stats.monitors[i];
        const MonitorRecord& p = run.stats.monitors[i];
        EXPECT_EQ(p.label, s.label) << what;
        EXPECT_EQ(p.actual_dpc, s.actual_dpc) << what << " " << s.label;
        EXPECT_EQ(p.actual_cardinality, s.actual_cardinality)
            << what << " " << s.label;
        EXPECT_EQ(p.exact, s.exact) << what;
      }
      EXPECT_EQ(run.stats.io.logical_reads, oracle.stats.io.logical_reads)
          << what;
      CheckExactInvariant(run.stats.io, what.c_str());
    }
  }
}

// The window is paced on finished morsels: with one worker, every morsel
// finished moves the frontier one morsel further, so each page was
// submitted before the worker fetches it and no page is a demand read.
// (With two or more workers the split depends on when each one wakes.)
TEST_F(AsyncScanTest, OneWorkerReadaheadPrefetchesEveryPage) {
  ParallelTableScanOp scan(t_, Pushed(), {kC1}, nullptr,
                           ParallelScanOptions{/*num_threads=*/1,
                                               /*morsel_pages=*/8,
                                               /*prefetch_pages=*/16});
  RunResult run = Run(&scan);
  const int64_t pages = static_cast<int64_t>(t_->page_count());
  ASSERT_GT(pages, 16);
  EXPECT_EQ(static_cast<int64_t>(run.stats.io.prefetch_reads), pages);
  EXPECT_EQ(run.stats.io.physical_reads(), 0);
  EXPECT_EQ(static_cast<int64_t>(run.stats.io.logical_reads), pages);
  CheckExactInvariant(run.stats.io, "one-worker readahead");
}

// ------------------------------------------- miss-path selection (no knob)

class MissPathSelectionTest : public SyntheticDbTest {
 protected:
  int64_t RegistryPrefetchReads() {
    return db_->metrics()
        ->GetCounter("disk_reads_total", "", {{"class", "prefetch"}})
        ->value();
  }
  int64_t PrefetchObservations(HistogramName family) {
    return db_->metrics()
        ->GetHistogram(family, "", 1.0, 2.0, 20, {{"class", "prefetch"}})
        ->count();
  }
  int64_t LoadingWaits() {
    int64_t waits = 0;
    for (size_t s = 0; s < db_->buffer_pool()->num_shards(); ++s) {
      waits += db_->metrics()
                   ->GetCounter("buffer_pool_loading_waits_total", "",
                                {{"shard", std::to_string(s)}})
                   ->value();
    }
    return waits;
  }
};

TEST_F(MissPathSelectionTest, ColdSerialScanReadsNothingAhead) {
  ASSERT_OK(db_->ColdCache());
  TableScanOp scan(t_, Predicate(), {kC1}, nullptr);
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_GT(run.stats.io.physical_reads(), 0) << "the scan really missed";
  EXPECT_EQ(static_cast<int64_t>(run.stats.io.prefetch_reads), 0);
  EXPECT_EQ(RegistryPrefetchReads(), 0) << "demand misses are not prefetches";
}

// Each scheduled prefetch feeds the device's queue-wait and service-time
// histograms once.
TEST_F(MissPathSelectionTest, ParallelReadaheadFeedsTheDeviceHistograms) {
  ASSERT_OK(db_->ColdCache());
  ParallelTableScanOp scan(t_, Predicate(), {kC1}, nullptr,
                           ParallelScanOptions{/*num_threads=*/2, 8,
                                               /*prefetch_pages=*/64});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  const int64_t prefetch_reads = run.stats.io.prefetch_reads;
  EXPECT_GT(prefetch_reads, 0);
  EXPECT_EQ(RegistryPrefetchReads(), prefetch_reads);
  EXPECT_EQ(PrefetchObservations("disk_queue_wait_us"), prefetch_reads);
  EXPECT_EQ(PrefetchObservations("disk_service_time_us"), prefetch_reads);
  CheckExactInvariant(run.stats.io, "parallel readahead");
}

// With no device latency every read is due the moment it is made, so a
// parallel scan with readahead never waits behind another load, however
// its workers and its readahead interleave.
TEST_F(MissPathSelectionTest, ZeroLatencyReadaheadNeverWaitsBehindALoad) {
  for (int threads : {2, 4}) {
    ASSERT_OK(db_->ColdCache());
    ParallelTableScanOp scan(t_, Predicate(), {kC1}, nullptr,
                             ParallelScanOptions{threads, /*morsel_pages=*/8,
                                                 /*prefetch_pages=*/64});
    ExecContext ctx(db_->buffer_pool());
    ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
    EXPECT_GT(static_cast<int64_t>(run.stats.io.prefetch_reads), 0);
    EXPECT_EQ(LoadingWaits(), 0) << "threads=" << threads;
    CheckExactInvariant(run.stats.io, "zero-latency readahead");
  }
}

}  // namespace
}  // namespace dpcf
