// Edge-case and robustness tests for the execution engine: empty inputs,
// operator reuse, tiny buffer pools, determinism, and SQL-to-result
// end-to-end checks against brute force.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/feedback_driver.h"
#include "exec/executor.h"
#include "exec/index_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "sql/binder.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using dpcf::testing::SyntheticDbTest;

// The two heap-scan modes: a full scan, and a clustered range over keys
// [1, 25] (it ends inside the first page, so the scan stops at a cut page).
// Range scans carry their range atoms in the pushed conjunction.
class ExecEdgeTest : public SyntheticDbTest {
 protected:
  std::vector<std::optional<ClusteredRange>> Modes() const {
    return {std::nullopt, ClusteredRange{db_->GetIndex("T_c1"), 1, 25}};
  }

  static Predicate WithRange(Predicate pred,
                             const std::optional<ClusteredRange>& range) {
    if (range.has_value()) {
      pred.Add(PredicateAtom::Int64(kC1, CmpOp::kGe, range->lo));
      pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLe, range->hi));
    }
    return pred;
  }
};

TEST_F(ExecEdgeTest, EmptyTableScansCleanly) {
  Schema schema({Column::Int64("x")});
  auto empty = db_->CreateTable("empty", schema, TableOrganization::kHeap);
  ASSERT_TRUE(empty.ok());
  TableBuilder b(*empty);
  ASSERT_OK(b.Finish());
  TableScanOp scan(*empty, Predicate(), {0});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_TRUE(run.output.empty());
  EXPECT_EQ(run.stats.io.logical_reads, 0);
}

TEST_F(ExecEdgeTest, EmptyTableWithMonitorsReportsZeroDpc) {
  Schema schema({Column::Int64("x")});
  auto empty = db_->CreateTable("empty2", schema, TableOrganization::kHeap);
  ASSERT_TRUE(empty.ok());
  TableBuilder b(*empty);
  ASSERT_OK(b.Finish());
  Predicate pred({PredicateAtom::Int64(0, CmpOp::kLt, 5)});
  auto bundle = std::make_unique<ScanMonitorBundle>(
      pred, &(*empty)->schema(), 1.0, 1);
  ScanExprRequest req;
  req.label = "x";
  req.expr = pred;
  ASSERT_OK(bundle->AddRequest(req));
  TableScanOp scan(*empty, pred, {}, std::move(bundle));
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  ASSERT_EQ(run.stats.monitors.size(), 1u);
  EXPECT_EQ(run.stats.monitors[0].actual_dpc, 0);
}

TEST_F(ExecEdgeTest, OperatorsAreReusableAfterClose) {
  const Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kLt, 50)});
  for (const std::optional<ClusteredRange>& range : Modes()) {
    SCOPED_TRACE(range.has_value() ? "clustered range" : "full scan");
    TableScanOp scan(t_, WithRange(pred, range), {kC1}, nullptr, true,
                     range);
    ExecContext ctx(db_->buffer_pool());
    ASSERT_OK_AND_ASSIGN(RunResult first, ExecutePlan(&scan, &ctx));
    ASSERT_OK_AND_ASSIGN(RunResult second, ExecutePlan(&scan, &ctx));
    EXPECT_EQ(first.output.size(), second.output.size());
    EXPECT_EQ(first.output.size(), range.has_value() ? 25u : 49u);
  }
}

TEST_F(ExecEdgeTest, AbandonedScanObservesItsOpenPageOnce) {
  // A consumer that stops after one row (a LIMIT 1) closes the scan with
  // its first page still open: Close must observe that page exactly once
  // and leave no page open in the bundle.
  const Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kGt, 0)});
  for (const std::optional<ClusteredRange>& range : Modes()) {
    for (bool vectorized : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << (range.has_value() ? "clustered range" : "full scan")
                   << (vectorized ? ", batch" : ", row oracle"));
      const Predicate pushed = WithRange(pred, range);
      auto bundle = std::make_unique<ScanMonitorBundle>(
          pushed, &t_->schema(), /*f=*/1.0, /*seed=*/1);
      ScanExprRequest req;
      req.label = "all";
      req.expr = pushed;
      ASSERT_OK(bundle->AddRequest(req));
      TableScanOp scan(t_, pushed, {kC1}, std::move(bundle), vectorized,
                       range);
      ExecContext ctx(db_->buffer_pool());
      ASSERT_OK(scan.Open(&ctx));
      Tuple row;
      ASSERT_OK_AND_ASSIGN(bool more, scan.Next(&ctx, &row));
      ASSERT_TRUE(more);
      ASSERT_OK(scan.Close(&ctx));

      const std::vector<ScanExprResult> results = scan.monitors()->Finish();
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].pages_seen, 1);
      // MergeFrom refuses a bundle with a page still open.
      EXPECT_OK(scan.monitors()->Clone()->MergeFrom(*scan.monitors()));
    }
  }
}

TEST_F(ExecEdgeTest, SeekWithEmptyRangeYieldsNothing) {
  auto source = std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c3"), BtreeKey::Min(500), BtreeKey::Max(400));
  FetchOp fetch(t_, std::move(source), Predicate(), {kC1});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&fetch, &ctx));
  EXPECT_TRUE(run.output.empty());
}

TEST_F(ExecEdgeTest, SeekBeyondDomainYieldsNothing) {
  auto source = std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c3"), BtreeKey::Min(10'000'000),
      BtreeKey::Max(20'000'000));
  FetchOp fetch(t_, std::move(source), Predicate(), {kC1});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&fetch, &ctx));
  EXPECT_TRUE(run.output.empty());
}

TEST_F(ExecEdgeTest, HashJoinWithEmptyBuildProducesNothing) {
  Predicate none({PredicateAtom::Int64(kC1, CmpOp::kLt, -1)});
  auto build = std::make_unique<TableScanOp>(t_, none,
                                             std::vector<int>{kC2});
  auto probe = std::make_unique<TableScanOp>(t_, Predicate(),
                                             std::vector<int>{kC2});
  HashJoinOp join(std::move(build), 0, std::move(probe), 0);
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&join, &ctx));
  EXPECT_TRUE(run.output.empty());
}

TEST_F(ExecEdgeTest, InlJoinWithNoMatchesProducesNothing) {
  Schema schema({Column::Int64("k")});
  auto outer_t = db_->CreateTable("nomatch", schema,
                                  TableOrganization::kHeap);
  ASSERT_TRUE(outer_t.ok());
  TableBuilder b(*outer_t);
  ASSERT_OK(b.AddRow({Value::Int64(-100)}));  // no T.C3 equals -100
  ASSERT_OK(b.Finish());
  auto outer = std::make_unique<TableScanOp>(*outer_t, Predicate(),
                                             std::vector<int>{0});
  IndexNestedLoopsJoinOp join(std::move(outer), 0, t_,
                              db_->GetIndex("T_c3"), Predicate(), {});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&join, &ctx));
  EXPECT_TRUE(run.output.empty());
}

TEST_F(ExecEdgeTest, TinyBufferPoolStillProducesCorrectResults) {
  // A pool of 8 frames against a 250-page table: heavy eviction, same
  // answers, far more physical I/O.
  DatabaseOptions small;
  small.buffer_pool_pages = 8;
  Database db2(small);
  SyntheticOptions opts;
  opts.num_rows = 20'000;
  opts.seed = 7;
  auto t2 = BuildSyntheticTable(&db2, "T", opts);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();

  Predicate pred({PredicateAtom::Int64(kC5, CmpOp::kLt, 777)});
  auto source = std::make_unique<IndexSeekSource>(
      db2.GetIndex("T_c5"), BtreeKey::Min(INT64_MIN), BtreeKey::Max(776));
  FetchOp fetch(*t2, std::move(source), Predicate(), {kC1});
  ASSERT_OK(db2.ColdCache());
  ExecContext ctx(db2.buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&fetch, &ctx));
  EXPECT_EQ(run.output.size(), 776u);
  EXPECT_GT(run.stats.io.physical_reads(), 700)
      << "scattered fetches thrash an 8-frame pool";
}

TEST_F(ExecEdgeTest, SimulatedTimeIsDeterministicAcrossRuns) {
  Predicate pred({PredicateAtom::Int64(kC4, CmpOp::kLt, 900)});
  auto run_once = [&]() {
    EXPECT_OK(db_->ColdCache());
    ExecContext ctx(db_->buffer_pool(), /*seed=*/77);
    auto bundle = std::make_unique<ScanMonitorBundle>(
        Predicate(), &t_->schema(), 0.1, 77);
    ScanExprRequest req;
    req.label = "x";
    req.expr = pred;
    (void)bundle->AddRequest(req);
    TableScanOp scan(t_, Predicate(), {}, std::move(bundle));
    auto result = ExecutePlan(&scan, &ctx);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result->stats.simulated_ms,
                          result->stats.monitors[0].actual_dpc);
  };
  auto [t1, d1] = run_once();
  auto [t2, d2] = run_once();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(d1, d2);
}

class SqlEndToEndTest : public SyntheticDbTest {
 protected:
  int64_t RunCount(const std::string& sql) {
    auto bound = BindSql(*db_, sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    StatisticsCatalog stats;
    EXPECT_OK(stats.BuildAll(db_->disk(), *t_));
    OptimizerHints hints;
    Optimizer opt(db_.get(), &stats, &hints);
    PlanMonitorHooks hooks;
    OperatorPtr root;
    if (bound->is_join) {
      auto plan = opt.OptimizeJoin(bound->join);
      EXPECT_TRUE(plan.ok());
      auto r = BuildJoinExec(*plan, bound->join, hooks);
      EXPECT_TRUE(r.ok());
      root = std::move(r).value();
    } else {
      auto plan = opt.OptimizeSingleTable(bound->single);
      EXPECT_TRUE(plan.ok());
      auto r = BuildSingleTableExec(*plan, bound->single, hooks);
      EXPECT_TRUE(r.ok());
      root = std::move(r).value();
    }
    ExecContext ctx(db_->buffer_pool());
    auto result = ExecutePlan(root.get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->output.size(), 1u);
    return result->output[0][0].AsInt64();
  }
};

TEST_F(SqlEndToEndTest, CountsMatchPermutationArithmetic) {
  // Ci are permutations of 1..20000, so exact counts are closed-form.
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE C2 < 1000"), 999);
  EXPECT_EQ(RunCount("SELECT COUNT(padding) FROM T WHERE C3 <= 1000"),
            1000);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE C4 > 19000"), 1000);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE C5 >= 19001"), 1000);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE C2 = 7777"), 1);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE C2 <> 7777"), 19'999);
  EXPECT_EQ(
      RunCount("SELECT COUNT(*) FROM T WHERE C1 >= 5000 AND C1 < 5100"),
      100);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE padding = 'pad'"),
            20'000);
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T WHERE padding = 'nope'"), 0);
}

TEST_F(SqlEndToEndTest, SelfJoinOnPermutationColumn) {
  // T ⋈ T on C1 restricted to 100 rows: needs a second table reference;
  // join T with itself is unsupported (same name), so join with a copy.
  SyntheticOptions opts;
  opts.num_rows = 20'000;
  opts.seed = 1234;
  opts.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", opts).ok());
  ASSERT_OK(db_->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
                .status());
  EXPECT_EQ(RunCount("SELECT COUNT(*) FROM T1 JOIN T ON T1.C3 = T.C3 "
                     "WHERE T1.C1 < 101"),
            100);
}

}  // namespace
}  // namespace dpcf
