// Join execution + join page-count monitoring (paper Section IV).

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/clustering_ratio.h"
#include "core/feedback_driver.h"
#include "exec/executor.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace dpcf {
namespace {

using dpcf::testing::MatchesRow;

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 1024;
    db_ = std::make_unique<Database>(opts);
    SyntheticOptions sopts;
    sopts.num_rows = 20'000;
    sopts.seed = 7;
    auto t = BuildSyntheticTable(db_.get(), "T", sopts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    t_ = *t;
    // T1: same schema/distributions, clustered on C1, but with
    // independently drawn permutations — joining on Ci then ranges over
    // clustering-correlated (C2) to scattered (C5) inner row sets.
    SyntheticOptions s1 = sopts;
    s1.seed = 1234;
    s1.build_indexes = false;
    auto t1 = BuildSyntheticTable(db_.get(), "T1", s1);
    ASSERT_TRUE(t1.ok()) << t1.status().ToString();
    t1_ = *t1;
    ASSERT_OK(db_->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
                  .status());
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t_));
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t1_));
  }

  JoinQuery MakeQuery(int ci, int64_t outer_limit) {
    JoinQuery q;
    q.outer_table = t1_;
    q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, outer_limit));
    q.outer_col = ci;
    q.inner_table = t_;
    q.inner_col = ci;
    q.count_star = true;
    q.inner_count_col = kPadding;
    return q;
  }

  int64_t RunPlan(const JoinPlan& plan, const JoinQuery& q,
                  bool monitored, std::vector<MonitorRecord>* records) {
    EXPECT_OK(db_->ColdCache());
    ExecContext ctx(db_->buffer_pool());
    PlanMonitorHooks hooks;
    if (monitored) {
      MonitorManager mm(db_.get());
      auto ih = mm.ForJoin(plan, q, &ctx);
      EXPECT_TRUE(ih.ok()) << ih.status().ToString();
      hooks = std::move(ih->hooks);
    }
    auto root = BuildJoinExec(plan, q, hooks);
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    auto result = ExecutePlan(root->get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (records != nullptr) *records = result->stats.monitors;
    EXPECT_EQ(result->output.size(), 1u);
    return result->output[0][0].AsInt64();
  }

  // One cold, profiled run of q's Hash Join plan.
  struct HashJoinRun {
    AccessKind probe_kind = AccessKind::kTableScan;
    int64_t probe_rows = 0;  // tuples the probe child emitted
    RunStatistics stats;
    std::vector<Tuple> output;
  };
  HashJoinRun RunHashJoin(const JoinQuery& q, bool monitored = false,
                          bool vectorized = true) {
    HashJoinRun run;
    OptimizerHints hints;
    Optimizer opt(db_.get(), &stats_, &hints);
    auto plans = opt.EnumerateJoinPlans(q);
    EXPECT_TRUE(plans.ok()) << plans.status().ToString();
    const JoinPlan& plan = plans->front();
    EXPECT_EQ(plan.method, JoinMethod::kHashJoin);
    run.probe_kind = plan.inner_path.kind;
    EXPECT_OK(db_->ColdCache());
    ExecContext ctx(db_->buffer_pool());
    ctx.set_profiling(true);
    PlanMonitorHooks hooks;
    hooks.vectorized_scan = vectorized;
    if (monitored) {
      MonitorOptions mopts;
      mopts.vectorized_scan = vectorized;
      MonitorManager mm(db_.get(), mopts);
      auto ih = mm.ForJoin(plan, q, &ctx);
      EXPECT_TRUE(ih.ok()) << ih.status().ToString();
      hooks = std::move(ih->hooks);
    }
    auto root = BuildJoinExec(plan, q, hooks);
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    auto result = ExecutePlan(root->get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const Operator* join = root->get();
    if (q.count_star) join = join->children()[0];
    run.probe_rows = join->children()[1]->profile().rows;
    run.stats = result->stats;
    run.output = result->output;
    return run;
  }

  // Rows of T passing q's inner predicate whose join key some filtered T1
  // row holds, by brute force over the raw rows.
  int64_t SemiJoinPassingRows(const JoinQuery& q) {
    std::set<int64_t> keys;
    t1_->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          if (MatchesRow(q.outer_pred, row)) {
            keys.insert(row.GetInt64(static_cast<size_t>(q.outer_col)));
          }
        });
    int64_t rows = 0;
    t_->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          rows += MatchesRow(q.inner_pred, row) &&
                  keys.count(row.GetInt64(
                      static_cast<size_t>(q.inner_col))) != 0;
        });
    return rows;
  }

  std::unique_ptr<Database> db_;
  Table* t_ = nullptr;
  Table* t1_ = nullptr;
  StatisticsCatalog stats_;
};

TEST_F(JoinTest, AllJoinMethodsAgreeOnCount) {
  // C1 < 501 selects 500 outer rows; C3 values of those rows are unique in
  // T, so the join yields exactly 500 rows.
  JoinQuery q = MakeQuery(kC3, 501);
  OptimizerHints hints;
  Optimizer opt(db_.get(), &stats_, &hints);
  ASSERT_OK_AND_ASSIGN(std::vector<JoinPlan> plans,
                       opt.EnumerateJoinPlans(q));
  ASSERT_GE(plans.size(), 3u);
  for (const JoinPlan& plan : plans) {
    EXPECT_EQ(RunPlan(plan, q, false, nullptr), 500) << plan.Describe();
  }
}

TEST_F(JoinTest, HashJoinBitvectorCountsInnerPages) {
  // Exact DPC(T, join-pred): T rows with C2 in {1..500} = first 500 rows,
  // contiguous => ceil(500 / rows_per_page) pages.
  JoinQuery q = MakeQuery(kC2, 501);
  OptimizerHints hints;
  Optimizer opt(db_.get(), &stats_, &hints);
  ASSERT_OK_AND_ASSIGN(std::vector<JoinPlan> plans,
                       opt.EnumerateJoinPlans(q));
  const JoinPlan* hash = nullptr;
  for (const JoinPlan& p : plans) {
    if (p.method == JoinMethod::kHashJoin) hash = &p;
  }
  ASSERT_NE(hash, nullptr);

  std::vector<MonitorRecord> records;
  EXPECT_EQ(RunPlan(*hash, q, true, &records), 500);
  const double expected_pages =
      std::ceil(500.0 / t_->rows_per_page());
  bool found = false;
  for (const MonitorRecord& m : records) {
    if (m.label == JoinPredKey(*t1_, kC2, *t_, kC2)) {
      found = true;
      // DPSample at f=0.01 on ~7 true pages has high variance per page,
      // but with the default full-sample fallback for few pages we accept
      // a broad band; what matters is the order of magnitude vs Yao's
      // ~200-page estimate.
      EXPECT_LT(m.actual_dpc, expected_pages * 60);
    }
  }
  EXPECT_TRUE(found);
}

// The probe scan evaluates the build keys as a semi-join predicate (paper
// Fig 5): the rows no build key matches never become tuples. The run's
// charges are what they were: one hash table op per build row and per
// probe row passing the pushed predicate, wherever it is charged.
TEST_F(JoinTest, HashJoinProbeScanEmitsOnlyTheSemiJoin) {
  for (int ci : {kC2, kC3, kC4, kC5}) {
    SCOPED_TRACE(ci);
    const JoinQuery q = MakeQuery(ci, 2001);
    ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities exact,
                         ExactJoinCardinality(db_->disk(), q));
    const HashJoinRun run = RunHashJoin(q);
    ASSERT_EQ(run.probe_kind, AccessKind::kTableScan);
    EXPECT_EQ(run.probe_rows, exact.semi_join_rows);
    ASSERT_EQ(run.output.size(), 1u);
    EXPECT_EQ(run.output[0][0].AsInt64(), exact.join_rows);
    EXPECT_EQ(run.stats.cpu.hash_table_ops, 2000 + t_->row_count());
  }
}

TEST_F(JoinTest, HashJoinProbeScanFiltersAfterTheInnerPredicate) {
  for (int ci : {kC2, kC3, kC4, kC5}) {
    SCOPED_TRACE(ci);
    JoinQuery q = MakeQuery(ci, 2001);
    q.inner_pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 10'000));
    ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities exact,
                         ExactJoinCardinality(db_->disk(), q));
    const HashJoinRun run = RunHashJoin(q);
    ASSERT_EQ(run.probe_kind, AccessKind::kTableScan);
    EXPECT_EQ(run.probe_rows, SemiJoinPassingRows(q));
    EXPECT_LT(run.probe_rows, exact.semi_join_rows);
    ASSERT_EQ(run.output.size(), 1u);
    EXPECT_EQ(run.output[0][0].AsInt64(), exact.join_rows);
    EXPECT_EQ(run.stats.cpu.hash_table_ops, 2000 + 9999);
  }
}

// A probe child other than a heap scan takes no key table: it emits every
// row passing its predicate, and the join probes each one.
TEST_F(JoinTest, HashJoinProbesAnIndexSeekRowByRow) {
  JoinQuery q = MakeQuery(kC3, 2001);
  q.inner_pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 20));
  ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities exact,
                       ExactJoinCardinality(db_->disk(), q));
  const HashJoinRun run = RunHashJoin(q);
  ASSERT_EQ(run.probe_kind, AccessKind::kIndexSeek);
  EXPECT_EQ(run.probe_rows, 19);
  ASSERT_EQ(run.output.size(), 1u);
  EXPECT_EQ(run.output[0][0].AsInt64(), exact.join_rows);
  EXPECT_EQ(run.stats.cpu.hash_table_ops, 2000 + 19);
}

// The page step's two evaluators feed the key filter the same survivors:
// same tuples in probe order, same charges, same monitor records.
TEST_F(JoinTest, HashJoinRowEvaluatorMatchesTheBatchPath) {
  JoinQuery q = MakeQuery(kC4, 2001);
  q.inner_pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 10'000));
  q.count_star = false;
  for (bool monitored : {false, true}) {
    SCOPED_TRACE(monitored ? "monitored" : "unmonitored");
    const HashJoinRun batch = RunHashJoin(q, monitored, true);
    const HashJoinRun rows = RunHashJoin(q, monitored, false);
    ASSERT_EQ(batch.probe_kind, AccessKind::kTableScan);
    EXPECT_EQ(batch.output.size(), static_cast<size_t>(batch.probe_rows));
    EXPECT_EQ(rows.output, batch.output);
    EXPECT_EQ(rows.probe_rows, batch.probe_rows);
    const CpuStats& a = rows.stats.cpu;
    const CpuStats& b = batch.stats.cpu;
    EXPECT_EQ(a.rows_processed, b.rows_processed);
    EXPECT_EQ(a.predicate_atom_evals, b.predicate_atom_evals);
    EXPECT_EQ(a.monitor_hash_ops, b.monitor_hash_ops);
    EXPECT_EQ(a.monitor_row_ops, b.monitor_row_ops);
    EXPECT_EQ(a.hash_table_ops, b.hash_table_ops);
    ASSERT_EQ(rows.stats.monitors.size(), batch.stats.monitors.size());
    EXPECT_EQ(batch.stats.monitors.empty(), !monitored);
    for (size_t i = 0; i < batch.stats.monitors.size(); ++i) {
      EXPECT_EQ(rows.stats.monitors[i].label, batch.stats.monitors[i].label);
      EXPECT_EQ(rows.stats.monitors[i].actual_dpc,
                batch.stats.monitors[i].actual_dpc);
      EXPECT_EQ(rows.stats.monitors[i].actual_cardinality,
                batch.stats.monitors[i].actual_cardinality);
    }
  }
}

TEST_F(JoinTest, InlJoinLinearCountingIsAccurate) {
  JoinQuery q = MakeQuery(kC5, 2001);  // 2000 scattered inner pages-ish
  // Force an INL plan regardless of cost.
  OptimizerHints hints;
  Optimizer opt(db_.get(), &stats_, &hints);
  ASSERT_OK_AND_ASSIGN(std::vector<JoinPlan> plans,
                       opt.EnumerateJoinPlans(q));
  const JoinPlan* inl = nullptr;
  for (const JoinPlan& p : plans) {
    if (p.method == JoinMethod::kIndexNestedLoops) inl = &p;
  }
  ASSERT_NE(inl, nullptr);

  std::vector<MonitorRecord> records;
  EXPECT_EQ(RunPlan(*inl, q, true, &records), 2000);

  // Ground truth: distinct T pages holding a row whose C5 value appears
  // among the filtered T1 rows' C5 values — by brute-force raw walk.
  std::set<int64_t> keys;
  t1_->file()->ForEachRawRow(
      db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
        if (row.GetInt64(kC1) < 2001) keys.insert(row.GetInt64(kC5));
      });
  std::set<PageNo> pages;
  t_->file()->ForEachRawRow(
      db_->disk(), [&](PageNo p, uint16_t, const RowView& row) {
        if (keys.count(row.GetInt64(kC5)) != 0) pages.insert(p);
      });
  const double truth = static_cast<double>(pages.size());
  bool found = false;
  for (const MonitorRecord& m : records) {
    if (m.label == JoinPredKey(*t1_, kC5, *t_, kC5)) {
      found = true;
      EXPECT_NEAR(m.actual_dpc, truth, 0.1 * truth)
          << "linear counting should be within 10%";
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(JoinTest, FeedbackFlipsHashJoinToInl) {
  // Correlated join column (C2), 2% outer selectivity: the true inner DPC
  // is tiny, Yao thinks it is huge, so the optimizer starts with Hash Join
  // and feedback should flip it to INL.
  JoinQuery q = MakeQuery(kC2, 401);
  FeedbackDriver driver(db_.get(), &stats_, {});
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome outcome, driver.RunJoin(q));
  EXPECT_NE(outcome.plan_before.find("HashJoin"), std::string::npos)
      << outcome.plan_before;
  EXPECT_NE(outcome.plan_after.find("IndexNestedLoops"), std::string::npos)
      << outcome.plan_after;
  EXPECT_GT(outcome.speedup, 0.3);
  EXPECT_LT(outcome.monitor_overhead, 0.05);
}

TEST_F(JoinTest, UncorrelatedJoinKeepsHashJoin) {
  JoinQuery q = MakeQuery(kC5, 2001);
  FeedbackDriver driver(db_.get(), &stats_, {});
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome outcome, driver.RunJoin(q));
  EXPECT_NE(outcome.plan_before.find("HashJoin"), std::string::npos);
  EXPECT_NEAR(outcome.speedup, 0.0, 0.05);
}

}  // namespace
}  // namespace dpcf
