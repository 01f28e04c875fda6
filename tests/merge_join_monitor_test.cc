// Merge-Join bitvector monitoring (paper Section IV, last paragraph):
//  * partial bitvector when both inputs stream in join-key order,
//  * prebuilt bitvector when the outer child is a blocking Sort,
//  * no filter when the inner child sorts (the inner scan would drain
//    before any outer key is hashed).

#include <set>

#include <gtest/gtest.h>

#include "core/monitor_manager.h"
#include "optimizer/optimizer.h"
#include "exec/executor.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

class MergeJoinMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 1024;
    db_ = std::make_unique<Database>(opts);
    SyntheticOptions sopts;
    sopts.num_rows = 20'000;
    sopts.seed = 7;
    auto t = BuildSyntheticTable(db_.get(), "T", sopts);
    ASSERT_TRUE(t.ok());
    t_ = *t;
    SyntheticOptions s1 = sopts;
    s1.seed = 1234;
    s1.build_indexes = false;
    auto t1 = BuildSyntheticTable(db_.get(), "T1", s1);
    ASSERT_TRUE(t1.ok());
    t1_ = *t1;
    ASSERT_OK(
        db_->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
            .status());
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t_));
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t1_));
  }

  // Exact DPC(T, join-pred) by brute force.
  double ExactJoinDpc(const JoinQuery& q) {
    std::set<int64_t> keys;
    q.outer_table->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          if (dpcf::testing::MatchesRow(q.outer_pred, row)) {
            keys.insert(row.GetInt64(static_cast<size_t>(q.outer_col)));
          }
        });
    std::set<PageNo> pages;
    q.inner_table->file()->ForEachRawRow(
        db_->disk(), [&](PageNo p, uint16_t, const RowView& row) {
          if (keys.count(row.GetInt64(static_cast<size_t>(q.inner_col)))) {
            pages.insert(p);
          }
        });
    return static_cast<double>(pages.size());
  }

  struct MergeRun {
    int64_t rows = -1;
    double dpc = -1;          // the join record's DPC, -1 without one
    double cardinality = -1;  // the join record's row count
  };

  // Finds (or builds) the MergeJoin plan for q and runs it monitored with
  // full-page sampling, on the batch or the row-oracle scan evaluator.
  MergeRun RunMergeMonitored(const JoinQuery& q, bool vectorized = true) {
    OptimizerHints hints;
    Optimizer opt(db_.get(), &stats_, &hints);
    auto plans = opt.EnumerateJoinPlans(q);
    EXPECT_TRUE(plans.ok());
    const JoinPlan* merge = nullptr;
    for (const auto& p : *plans) {
      if (p.method == JoinMethod::kMergeJoin) merge = &p;
    }
    EXPECT_NE(merge, nullptr);

    MonitorOptions mopts;
    mopts.scan_sample_fraction = 1.0;  // exact page counting
    mopts.min_sampled_pages = 0;
    mopts.vectorized_scan = vectorized;
    MonitorManager mm(db_.get(), mopts);
    EXPECT_OK(db_->ColdCache());
    ExecContext ctx(db_->buffer_pool());
    auto ih = mm.ForJoin(*merge, q, &ctx);
    EXPECT_TRUE(ih.ok());
    auto root = BuildJoinExec(*merge, q, ih->hooks);
    EXPECT_TRUE(root.ok());
    auto result = ExecutePlan(root->get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();

    MergeRun run;
    if (!result->output.empty()) run.rows = result->output[0][0].AsInt64();
    std::string join_label =
        JoinPredKey(*q.outer_table, q.outer_col, *q.inner_table,
                    q.inner_col);
    for (const MonitorRecord& m : result->stats.monitors) {
      if (m.label == join_label) {
        run.dpc = m.actual_dpc;
        run.cardinality = m.actual_cardinality;
      }
    }
    return run;
  }

  std::unique_ptr<Database> db_;
  Table* t_ = nullptr;
  Table* t1_ = nullptr;
  StatisticsCatalog stats_;
};

TEST_F(MergeJoinMonitorTest, PartialFilterCountsExactlyWhenBothClustered) {
  // Join on the clustering keys: no sorts => partial bitvector mode.
  JoinQuery q;
  q.outer_table = t1_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 1001));
  q.outer_col = kC1;
  q.inner_table = t_;
  q.inner_col = kC1;
  q.count_star = true;
  q.inner_count_col = kPadding;

  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "batch scan" : "row-oracle scan");
    const MergeRun run = RunMergeMonitored(q, vectorized);
    EXPECT_EQ(run.rows, 1000);
    ASSERT_GE(run.dpc, 0) << "partial-filter monitoring must be active";
    // Matching inner rows are the first 1000 of T: ceil(1000/81) = 13
    // pages.
    EXPECT_NEAR(run.dpc, ExactJoinDpc(q), 1.0);
    // f = 1 makes the record exact. Its row count reaches the join
    // cardinality hint, so each inner page must be probed against a filter
    // holding every outer key up to that page (observed when the scan
    // leaves the page, not when it opens it).
    EXPECT_EQ(run.cardinality, 1000);
  }
}

TEST_F(MergeJoinMonitorTest, PrebuiltFilterWhenOuterSorts) {
  // Outer joins on C5 (needs a Sort), inner streams on its clustering
  // key C1: sort_outer && !sort_inner => prebuilt bitvector.
  JoinQuery q;
  q.outer_table = t1_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 801));
  q.outer_col = kC5;
  q.inner_table = t_;
  q.inner_col = kC1;
  q.count_star = true;
  q.inner_count_col = kPadding;

  OptimizerHints hints;
  Optimizer opt(db_.get(), &stats_, &hints);
  auto plans = opt.EnumerateJoinPlans(q);
  ASSERT_TRUE(plans.ok());
  const JoinPlan* merge = nullptr;
  for (const auto& p : *plans) {
    if (p.method == JoinMethod::kMergeJoin) merge = &p;
  }
  ASSERT_NE(merge, nullptr);
  EXPECT_TRUE(merge->sort_outer);
  EXPECT_FALSE(merge->sort_inner);

  const MergeRun run = RunMergeMonitored(q);
  EXPECT_EQ(run.rows, 800) << "800 outer C5 values, each matching one T.C1";
  ASSERT_GE(run.dpc, 0);
  EXPECT_NEAR(run.dpc, ExactJoinDpc(q), 0.05 * ExactJoinDpc(q) + 2);
}

TEST_F(MergeJoinMonitorTest, NoFilterWhenInnerSorts) {
  // Inner joins on C5 (inner Sort drains the scan eagerly): bitvector
  // monitoring is unavailable for merge join in this shape.
  JoinQuery q;
  q.outer_table = t1_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 501));
  q.outer_col = kC1;
  q.inner_table = t_;
  q.inner_col = kC5;
  q.count_star = true;
  q.inner_count_col = kPadding;

  const MergeRun run = RunMergeMonitored(q);
  EXPECT_EQ(run.rows, 500);
  EXPECT_EQ(run.dpc, -1) << "no join DPC record expected";
}

TEST_F(MergeJoinMonitorTest, PartialAndPrebuiltAgreeWithHashJoin) {
  // The same join monitored through the hash-join path must produce the
  // same DPC as the merge paths (all mechanisms measure the same truth).
  JoinQuery q;
  q.outer_table = t1_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 2001));
  q.outer_col = kC1;
  q.inner_table = t_;
  q.inner_col = kC1;
  q.count_star = true;
  q.inner_count_col = kPadding;

  const MergeRun merge = RunMergeMonitored(q);

  OptimizerHints hints;
  Optimizer opt(db_.get(), &stats_, &hints);
  auto plans = opt.EnumerateJoinPlans(q);
  ASSERT_TRUE(plans.ok());
  const JoinPlan* hash = nullptr;
  for (const auto& p : *plans) {
    if (p.method == JoinMethod::kHashJoin) hash = &p;
  }
  ASSERT_NE(hash, nullptr);
  MonitorOptions mopts;
  mopts.scan_sample_fraction = 1.0;
  mopts.min_sampled_pages = 0;
  MonitorManager mm(db_.get(), mopts);
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(InstrumentedHooks ih, mm.ForJoin(*hash, q, &ctx));
  ASSERT_OK_AND_ASSIGN(OperatorPtr root, BuildJoinExec(*hash, q, ih.hooks));
  ASSERT_OK_AND_ASSIGN(RunResult result, ExecutePlan(root.get(), &ctx));

  double hash_dpc = -1;
  for (const MonitorRecord& m : result.stats.monitors) {
    if (m.label == JoinPredKey(*t1_, kC1, *t_, kC1)) hash_dpc = m.actual_dpc;
  }
  EXPECT_EQ(result.output[0][0].AsInt64(), merge.rows);
  EXPECT_NEAR(hash_dpc, merge.dpc, 1.0);
}

}  // namespace
}  // namespace dpcf
