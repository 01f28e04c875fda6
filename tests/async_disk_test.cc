// The asynchronous disk submission ring (storage/disk_manager.h), the
// readahead path built on it (BufferPool::PrefetchBatch), and the parallel
// scan's readahead window, paced by its workers (exec/parallel_scan.h).
//
//  - one completion worker drains the ring in submission order (FIFO);
//  - demand misses are read inline and never touch the ring; readahead
//    always goes through it, and the exact accounting invariant
//    logical_reads == buffer_hits + physical_reads() holds;
//  - a fetch waiting behind a loading page counts one wait, however many
//    other loads in the shard wake it;
//  - ColdReset cancels the queued backlog instead of waiting out its
//    simulated latency, and cancelled reads charge nothing;
//  - a one-worker scan with readahead prefetches every page before its
//    fetch, so it charges no demand read;
//  - merged scan feedback is bit-for-bit identical to the serial oracle
//    for every thread count x window combination.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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

// ------------------------------------------------------------ raw ring

TEST(AsyncDiskTest, SingleWorkerCompletesInSubmissionOrder) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1,
                                      /*queue_depth=*/64});
  const PageNo kPages = 24;
  SegmentId seg = FillSegment(&disk, kPages);

  std::vector<const char*> images(kPages, nullptr);
  std::mutex order_mu;
  std::vector<PageNo> completed;
  std::vector<ReadRequest> batch;
  for (PageNo p = 0; p < kPages; ++p) {
    batch.push_back(ReadRequest{
        PageId{seg, p},
        [&order_mu, &completed, &images, p](const Result<const char*>& read) {
          EXPECT_TRUE(read.ok()) << read.status().ToString();
          std::lock_guard<std::mutex> hold(order_mu);
          completed.push_back(p);
          if (read.ok()) images[p] = *read;
        }});
  }
  disk.SubmitBatch(std::move(batch));
  disk.DrainSubmissions();

  ASSERT_EQ(completed.size(), kPages);
  for (PageNo p = 0; p < kPages; ++p) {
    EXPECT_EQ(completed[p], p) << "ring is FIFO with one worker";
    ASSERT_NE(images[p], nullptr) << "page " << p;
    EXPECT_EQ(images[p][0], static_cast<char>(p)) << "page " << p;
  }
  EXPECT_EQ(disk.pending_submissions(), 0u);
  // The ring carries readahead: charged as prefetch reads, never as
  // demand reads, so the read head stays where the demand stream left it.
  EXPECT_EQ(static_cast<int64_t>(disk.io_stats()->prefetch_reads),
            static_cast<int64_t>(kPages));
  EXPECT_EQ(disk.io_stats()->physical_reads(), 0);
}

TEST(AsyncDiskTest, SubmitBeyondQueueDepthBackpressuresNotDrops) {
  // 4x more requests than ring slots: producers must block, not drop.
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/2,
                                      /*queue_depth=*/8});
  const PageNo kPages = 32;
  SegmentId seg = FillSegment(&disk, kPages);

  // Each completion writes only its own slot; DrainSubmissions orders
  // every callback's return before the checks below.
  std::vector<const char*> images(kPages, nullptr);
  std::atomic<int> ok_count{0};
  std::vector<ReadRequest> batch;
  for (PageNo p = 0; p < kPages; ++p) {
    batch.push_back(ReadRequest{
        PageId{seg, p},
        [&ok_count, &images, p](const Result<const char*>& read) {
          if (!read.ok()) return;
          images[p] = *read;
          ok_count.fetch_add(1);
        }});
  }
  disk.SubmitBatch(std::move(batch));
  disk.DrainSubmissions();
  EXPECT_EQ(ok_count.load(), static_cast<int>(kPages));
  for (PageNo p = 0; p < kPages; ++p) {
    ASSERT_NE(images[p], nullptr) << "page " << p;
    EXPECT_EQ(images[p][0], static_cast<char>(p));
  }
}

TEST(AsyncDiskTest, DestructorCancelsQueuedReads) {
  const PageNo kPages = 64;
  std::atomic<int> cancelled{0};
  std::atomic<int> completed{0};
  {
    DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1,
                                        /*queue_depth=*/256});
    SegmentId seg = FillSegment(&disk, kPages);
    disk.set_read_latency_us(1000);  // the backlog would take ~64 ms
    std::vector<ReadRequest> batch;
    for (PageNo p = 0; p < kPages; ++p) {
      batch.push_back(ReadRequest{
          PageId{seg, p},
          [&cancelled, &completed](const Result<const char*>& read) {
            (read.ok() ? completed : cancelled).fetch_add(1);
          }});
    }
    disk.SubmitBatch(std::move(batch));
    // Destroy with the ring still mostly full.
  }
  EXPECT_EQ(cancelled.load() + completed.load(),
            static_cast<int>(kPages))
      << "every submission gets exactly one completion call";
  EXPECT_GT(cancelled.load(), 0) << "the backlog was retired, not slept";
}

// ---------------------------------------------------- pool integration

TEST(AsyncDiskTest, ColdResetCancelsPendingPrefetches) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1,
                                      /*queue_depth=*/256});
  const PageNo kPages = 64;
  SegmentId seg = FillSegment(&disk, kPages);
  disk.set_read_latency_us(1000);  // ~64 ms if the backlog were slept

  BufferPool pool(&disk, /*capacity_pages=*/128,
                  BufferPoolOptions{/*num_shards=*/2});
  std::vector<PageId> pids;
  for (PageNo p = 0; p < kPages; ++p) pids.push_back(PageId{seg, p});
  pool.PrefetchBatch(pids);
  ASSERT_OK(pool.ColdReset());  // cancels the queue instead of draining it

  EXPECT_EQ(pool.cached_pages(), 0u);
  EXPECT_EQ(disk.pending_submissions(), 0u);
  // Cancelled reads charged nothing: at most the one or two requests a
  // worker had already claimed count as prefetch reads.
  EXPECT_LT(static_cast<int64_t>(disk.io_stats()->prefetch_reads),
            static_cast<int64_t>(kPages));
  // The pool still works after the cancellation.
  disk.set_read_latency_us(0);
  auto guard = pool.Fetch(PageId{seg, 5});
  ASSERT_OK(guard.status());
  EXPECT_EQ(guard.value().data()[0], 5);
  CheckExactInvariant(*disk.io_stats(), "after cold-reset cancellation");
}

TEST(AsyncDiskTest, InvariantHoldsUnderEvictionChurn) {
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/2,
                                      /*queue_depth=*/64});
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
  disk.DrainSubmissions();
  CheckExactInvariant(*disk.io_stats(), "eviction churn");
}

TEST(AsyncDiskTest, LoadingWaitCountedOncePerFetch) {
  // One shard and one io worker: the ring completes p0, then p1, and each
  // completion notifies the shard condvar. A Fetch of p1 is woken by p0's
  // completion first, finds p1 still loading, and keeps waiting — one
  // wait, not one per wake-up.
  DiskManager disk(DiskManagerOptions{kPageSize, /*io_threads=*/1,
                                      /*queue_depth=*/64});
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
    if (e.type != JournalEvent::kLoadingWait) continue;
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
  int64_t RingSubmissions() {
    return db_->metrics()->GetCounter("disk_async_submitted_total", "")
        ->value();
  }
};

TEST_F(MissPathSelectionTest, ColdSerialScanNeverTouchesTheRing) {
  ASSERT_OK(db_->ColdCache());
  TableScanOp scan(t_, Predicate(), {kC1}, nullptr);
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_GT(run.stats.io.physical_reads(), 0) << "the scan really missed";
  EXPECT_EQ(RingSubmissions(), 0) << "demand misses are read inline";
}

TEST_F(MissPathSelectionTest, ParallelReadaheadGoesThroughTheRing) {
  ASSERT_OK(db_->ColdCache());
  ParallelTableScanOp scan(t_, Predicate(), {kC1}, nullptr,
                           ParallelScanOptions{/*num_threads=*/2, 8,
                                               /*prefetch_pages=*/64});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  const int64_t prefetch_reads = run.stats.io.prefetch_reads;
  EXPECT_GT(prefetch_reads, 0);
  EXPECT_LE(prefetch_reads, RingSubmissions())
      << "every prefetch read was a ring submission";
  CheckExactInvariant(run.stats.io, "parallel readahead");
}

}  // namespace
}  // namespace dpcf
