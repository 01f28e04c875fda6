// Parallel-vs-serial equivalence for the morsel-parallel scan: identical
// output tuples in identical order, bit-for-bit identical merged DPC
// feedback (exact and sampled) and identical CPU charges, at any thread
// count; and a failing worker's status and pins. Also unit-tests the merge
// operations of the underlying mergeable sketches.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/dpsample.h"
#include "core/grouped_page_counter.h"
#include "core/linear_counter.h"
#include "exec/executor.h"
#include "exec/parallel_scan.h"
#include "exec/rel_ops.h"
#include "exec/scan_ops.h"
#include "obs/op_profile.h"
#include "optimizer/plan.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::SyntheticDbTest;

// ---------------------------------------------------------------- MorselQueue

TEST(MorselQueueTest, CoversRangeExactlyOnce) {
  MorselQueue queue(100, 32);
  EXPECT_EQ(queue.num_morsels(), 4u);
  std::vector<bool> covered(100, false);
  uint32_t morsel;
  PageNo begin, end;
  std::set<uint32_t> morsels;
  while (queue.Next(&morsel, &begin, &end)) {
    EXPECT_TRUE(morsels.insert(morsel).second);
    for (PageNo p = begin; p < end; ++p) {
      EXPECT_FALSE(covered[p]);
      covered[p] = true;
    }
  }
  for (bool c : covered) EXPECT_TRUE(c);
  EXPECT_EQ(morsels.size(), 4u);
}

TEST(MorselQueueTest, EmptyRangeAndOddSizes) {
  MorselQueue empty(0, 32);
  EXPECT_EQ(empty.num_morsels(), 0u);
  uint32_t m;
  PageNo b, e;
  EXPECT_FALSE(empty.Next(&m, &b, &e));

  MorselQueue odd(33, 32);
  EXPECT_EQ(odd.num_morsels(), 2u);
  ASSERT_TRUE(odd.Next(&m, &b, &e));
  EXPECT_EQ(e - b, 32u);
  ASSERT_TRUE(odd.Next(&m, &b, &e));
  EXPECT_EQ(b, 32u);
  EXPECT_EQ(e, 33u);
}

// ----------------------------------------------------------- sketch merging

TEST(LinearCounterMergeTest, OrMergeMatchesSingleCounter) {
  LinearCounter whole(1 << 12, 99);
  LinearCounter half_a(1 << 12, 99);
  LinearCounter half_b(1 << 12, 99);
  for (uint64_t v = 0; v < 4000; ++v) {
    whole.Add(v);
    (v % 2 == 0 ? half_a : half_b).Add(v);
  }
  ASSERT_OK(half_a.MergeFrom(half_b));
  EXPECT_EQ(half_a.BitsSet(), whole.BitsSet());
  EXPECT_DOUBLE_EQ(half_a.Estimate(), whole.Estimate());
}

TEST(LinearCounterMergeTest, RejectsMismatchedConfig) {
  LinearCounter a(1 << 12, 1);
  LinearCounter b(1 << 12, 2);
  EXPECT_FALSE(a.MergeFrom(b).ok());
  LinearCounter c(1 << 13, 1);
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

TEST(GroupedPageCounterMergeTest, SumsDisjointPages) {
  GroupedPageCounter whole, part_a, part_b;
  auto drive = [](GroupedPageCounter* c, int satisfying_rows) {
    c->BeginPage();
    for (int r = 0; r < satisfying_rows; ++r) c->OnRowSatisfies();
    c->EndPage();
  };
  // Pages 0..5 with varying satisfying-row counts, split between a and b.
  const int rows_per_page[] = {3, 0, 1, 0, 7, 2};
  for (int p = 0; p < 6; ++p) {
    drive(&whole, rows_per_page[p]);
    drive(p % 2 == 0 ? &part_a : &part_b, rows_per_page[p]);
  }
  part_a.MergeFrom(part_b);
  EXPECT_EQ(part_a.pages_seen(), whole.pages_seen());
  EXPECT_EQ(part_a.pages_satisfying(), whole.pages_satisfying());
  EXPECT_EQ(part_a.rows_satisfying(), whole.rows_satisfying());
}

TEST(ScanMonitorBundleMergeTest, RejectsMismatchedBundles) {
  Schema* schema = nullptr;  // never dereferenced for these failures
  ScanMonitorBundle a(Predicate(), schema, 0.5, 1);
  ScanMonitorBundle b(Predicate(), schema, 0.5, 2);  // different seed
  EXPECT_FALSE(a.MergeFrom(b).ok());
  ScanMonitorBundle c(Predicate(), schema, 0.25, 1);  // different fraction
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

// -------------------------------------------------- parallel == serial

class ParallelScanTest : public SyntheticDbTest {
 protected:
  static Predicate Pushed() {
    return Predicate({PredicateAtom::Int64(kC3, CmpOp::kLt, 4000),
                      PredicateAtom::Int64(kC5, CmpOp::kGe, 10'000)});
  }

  // One prefix-exact request (the pushed conjunction's leading atom), one
  // full-conjunction prefix request, and one genuinely sampled request on
  // an unrelated column — covers all three monitor modes at f < 1.
  std::unique_ptr<ScanMonitorBundle> MakeBundle() {
    auto bundle = std::make_unique<ScanMonitorBundle>(
        Pushed(), &t_->schema(), /*sample_fraction=*/0.2, /*seed=*/99);
    ScanExprRequest lead;
    lead.label = "T: C3<4000";
    lead.expr = Predicate({PredicateAtom::Int64(kC3, CmpOp::kLt, 4000)});
    EXPECT_OK(bundle->AddRequest(lead));
    ScanExprRequest full;
    full.label = "T: full";
    full.expr = Pushed();
    EXPECT_OK(bundle->AddRequest(full));
    ScanExprRequest sampled;
    sampled.label = "T: C4<2000";
    sampled.expr = Predicate({PredicateAtom::Int64(kC4, CmpOp::kLt, 2000)});
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

  // Every CpuStats field: a worker tally lost or counted twice at the join
  // moves at least one of them.
  static void ExpectSameCpu(const CpuStats& got, const CpuStats& want,
                            int threads) {
    EXPECT_EQ(got.rows_processed, want.rows_processed)
        << "threads=" << threads;
    EXPECT_EQ(got.predicate_atom_evals, want.predicate_atom_evals)
        << "threads=" << threads;
    EXPECT_EQ(got.monitor_hash_ops, want.monitor_hash_ops)
        << "threads=" << threads;
    EXPECT_EQ(got.monitor_row_ops, want.monitor_row_ops)
        << "threads=" << threads;
    EXPECT_EQ(got.hash_table_ops, want.hash_table_ops)
        << "threads=" << threads;
  }
};

TEST_F(ParallelScanTest, MatchesSerialTuplesAndFeedback) {
  TableScanOp serial(t_, Pushed(), {kC1, kC5}, MakeBundle());
  RunResult serial_run = Run(&serial);
  ASSERT_GT(serial_run.output.size(), 0u);
  ASSERT_EQ(serial_run.stats.monitors.size(), 3u);

  for (int threads : {1, 2, 4}) {
    ParallelTableScanOp parallel(t_, Pushed(), {kC1, kC5}, MakeBundle(),
                                 ParallelScanOptions{threads, 8});
    RunResult parallel_run = Run(&parallel);

    // Identical tuples in identical (page) order.
    ASSERT_EQ(parallel_run.output.size(), serial_run.output.size())
        << "threads=" << threads;
    for (size_t i = 0; i < serial_run.output.size(); ++i) {
      ASSERT_TRUE(parallel_run.output[i] == serial_run.output[i])
          << "tuple " << i << " differs at threads=" << threads;
    }

    // Bit-for-bit identical merged DPC feedback.
    ASSERT_EQ(parallel_run.stats.monitors.size(),
              serial_run.stats.monitors.size());
    for (size_t i = 0; i < serial_run.stats.monitors.size(); ++i) {
      const MonitorRecord& s = serial_run.stats.monitors[i];
      const MonitorRecord& p = parallel_run.stats.monitors[i];
      EXPECT_EQ(p.label, s.label);
      EXPECT_EQ(p.mechanism, s.mechanism);
      EXPECT_EQ(p.actual_dpc, s.actual_dpc)
          << s.label << " at threads=" << threads;
      EXPECT_EQ(p.actual_cardinality, s.actual_cardinality)
          << s.label << " at threads=" << threads;
      EXPECT_EQ(p.exact, s.exact);
    }

    // Identical logical I/O too: every page read exactly once per run.
    EXPECT_EQ(parallel_run.stats.io.logical_reads,
              serial_run.stats.io.logical_reads);
    // And identical CPU charges: every worker's tally comes back.
    ExpectSameCpu(parallel_run.stats.cpu, serial_run.stats.cpu, threads);
  }
}

TEST_F(ParallelScanTest, ReadaheadPreservesFeedbackAndAccounting) {
  TableScanOp serial(t_, Pushed(), {kC1, kC5}, MakeBundle());
  RunResult serial_run = Run(&serial);
  ASSERT_GT(serial_run.output.size(), 0u);
  EXPECT_EQ(serial_run.stats.io.prefetch_reads, 0);

  for (int threads : {1, 4}) {
    ParallelTableScanOp parallel(
        t_, Pushed(), {kC1, kC5}, MakeBundle(),
        ParallelScanOptions{threads, 8, /*prefetch_pages=*/64});
    RunResult parallel_run = Run(&parallel);

    // Identical tuples in identical order — readahead only changes *when*
    // pages enter the pool, never what the scan sees.
    ASSERT_EQ(parallel_run.output.size(), serial_run.output.size())
        << "threads=" << threads;
    for (size_t i = 0; i < serial_run.output.size(); ++i) {
      ASSERT_TRUE(parallel_run.output[i] == serial_run.output[i])
          << "tuple " << i << " differs at threads=" << threads;
    }

    // Bit-for-bit identical merged DPC feedback with readahead enabled.
    ASSERT_EQ(parallel_run.stats.monitors.size(),
              serial_run.stats.monitors.size());
    for (size_t i = 0; i < serial_run.stats.monitors.size(); ++i) {
      const MonitorRecord& s = serial_run.stats.monitors[i];
      const MonitorRecord& p = parallel_run.stats.monitors[i];
      EXPECT_EQ(p.label, s.label);
      EXPECT_EQ(p.actual_dpc, s.actual_dpc)
          << s.label << " at threads=" << threads;
      EXPECT_EQ(p.actual_cardinality, s.actual_cardinality)
          << s.label << " at threads=" << threads;
    }

    // Honest accounting: readahead actually submitted pages, and every page
    // entered the pool exactly once — charged either as a prefetch or as a
    // demand physical read, never both (a prefetched page's later fetch is
    // a logical read + buffer hit).
    EXPECT_GT(parallel_run.stats.io.prefetch_reads, 0)
        << "threads=" << threads;
    EXPECT_EQ(static_cast<int64_t>(parallel_run.stats.io.prefetch_reads) +
                  parallel_run.stats.io.physical_reads(),
              serial_run.stats.io.physical_reads())
        << "threads=" << threads;
    EXPECT_EQ(parallel_run.stats.io.logical_reads,
              serial_run.stats.io.logical_reads)
        << "threads=" << threads;
    ExpectSameCpu(parallel_run.stats.cpu, serial_run.stats.cpu, threads);
  }
}

TEST_F(ParallelScanTest, EmptyPredicateFullScanMatches) {
  TableScanOp serial(t_, Predicate(), {kC1}, nullptr);
  RunResult serial_run = Run(&serial);
  EXPECT_EQ(serial_run.output.size(), 20'000u);

  ParallelTableScanOp parallel(t_, Predicate(), {kC1}, nullptr,
                               ParallelScanOptions{4, 8});
  RunResult parallel_run = Run(&parallel);
  ASSERT_EQ(parallel_run.output.size(), serial_run.output.size());
  for (size_t i = 0; i < serial_run.output.size(); ++i) {
    ASSERT_TRUE(parallel_run.output[i] == serial_run.output[i]);
  }
  // Per-row CPU accounting folds back from the workers.
  EXPECT_EQ(parallel_run.stats.cpu.rows_processed,
            serial_run.stats.cpu.rows_processed);
}

// Profiling reads the tally ExecutePlan reads. Under a COUNT, the root's
// inclusive CPU is the run's, field for field, and the scan's own profile
// carries what its two workers charged: the scan adds their tallies in
// before its Open returns.
TEST_F(ParallelScanTest, ProfiledScanCarriesItsWorkersCpu) {
  TableScanOp serial(t_, Pushed(), {kC1}, MakeBundle());
  const RunResult serial_run = Run(&serial);
  ASSERT_GT(serial_run.stats.cpu.rows_processed, 0);

  AggregateCountOp count(std::make_unique<ParallelTableScanOp>(
      t_, Pushed(), std::vector<int>{kC1}, MakeBundle(),
      ParallelScanOptions{2, 8}));
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  ctx.set_profiling(true);
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&count, &ctx));
  ASSERT_NE(run.stats.profile, nullptr);
  const OpProfileNode& root = *run.stats.profile;
  ExpectSameCpu(root.profile.cpu, run.stats.cpu, 2);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].profile.cpu.rows_processed,
            serial_run.stats.cpu.rows_processed);
}

// A worker whose fetch fails hands its status back through the join, and
// no worker leaves a page pinned. The test pins the table's first 8 pages,
// every frame of an 8-frame pool, so the scan's first morsel re-pins them
// (hits) and any other page has no frame to load into.
TEST_F(ParallelScanTest, FailedWorkerReturnsItsStatusAndLeaksNoPin) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 8;
  Database db(opts);
  BufferPool* pool = db.buffer_pool();
  ASSERT_EQ(pool->num_shards(), 1u);
  SyntheticOptions sopts;
  sopts.num_rows = 2000;
  sopts.seed = 5;
  sopts.build_indexes = false;
  ASSERT_OK_AND_ASSIGN(Table * t, BuildSyntheticTable(&db, "T", sopts));
  const SegmentId segment = t->file()->segment();
  ASSERT_GT(t->file()->page_count(), 16u);

  {
    std::vector<PageGuard> held;
    for (PageNo p = 0; p < 8; ++p) {
      ASSERT_OK_AND_ASSIGN(PageGuard guard, pool->Fetch(PageId{segment, p}));
      held.push_back(std::move(guard));
    }
    ParallelTableScanOp scan(t, Predicate(), {kC1}, nullptr,
                             ParallelScanOptions{2, 8});
    ExecContext ctx(pool);
    Result<RunResult> run = ExecutePlan(&scan, &ctx);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
        << run.status().ToString();
  }
  // Only the test's pins were left, and they are gone: the pool resets.
  ASSERT_OK(db.ColdCache());
  EXPECT_EQ(pool->cached_pages(), 0u);
}

TEST_F(ParallelScanTest, PlannerLowersToParallelScan) {
  AccessPathPlan path;
  path.kind = AccessKind::kTableScan;
  path.table = t_;
  path.full_pred = Pushed();

  SingleTableQuery query;
  query.table = t_;
  query.pred = Pushed();
  query.count_star = true;

  PlanMonitorHooks serial_hooks;
  ASSERT_OK_AND_ASSIGN(OperatorPtr serial_op,
                       BuildSingleTableExec(path, query, serial_hooks));
  RunResult serial_run = Run(serial_op.get());

  PlanMonitorHooks parallel_hooks;
  parallel_hooks.scan_threads = 4;
  parallel_hooks.prefetch_pages = 32;
  ASSERT_OK_AND_ASSIGN(OperatorPtr parallel_op,
                       BuildSingleTableExec(path, query, parallel_hooks));
  EXPECT_NE(DescribeTree(*parallel_op).find("Parallel"), std::string::npos);
  EXPECT_NE(DescribeTree(*parallel_op).find("prefetch=32"),
            std::string::npos);
  RunResult parallel_run = Run(parallel_op.get());

  ASSERT_EQ(parallel_run.output.size(), 1u);
  ASSERT_EQ(serial_run.output.size(), 1u);
  EXPECT_TRUE(parallel_run.output[0] == serial_run.output[0]);
}

}  // namespace
}  // namespace dpcf
