// Optimizer tests: histograms, cardinality estimation with hints, the Yao
// analytical DPC baseline, range extraction, access-path and join-method
// enumeration, and hint-driven plan flips.

#include <cmath>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/yao.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using dpcf::testing::SyntheticDbTest;

/// Cardenas' approximation P * (1 - (1 - 1/P)^k) of the pages k random
/// rows touch: a reference formula for Yao's, which it underestimates,
/// the more so the fewer rows a page holds.
double CardenasEstimate(int64_t pages, int64_t qualifying_rows) {
  if (pages <= 0 || qualifying_rows <= 0) return 0;
  const double p = static_cast<double>(pages);
  return p * (1.0 - std::pow(1.0 - 1.0 / p,
                             static_cast<double>(qualifying_rows)));
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, UniformRangeEstimatesAreAccurate) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10'000; ++i) values.push_back(i);
  Histogram h = Histogram::FromValues(values, 100);
  EXPECT_EQ(h.row_count(), 10'000);
  EXPECT_NEAR(h.EstimateRange(0, 999), 1000, 20);
  EXPECT_NEAR(h.EstimateRange(2500, 7499), 5000, 20);
  EXPECT_NEAR(h.EstimateRange(9990, 20000), 10, 5);
  EXPECT_EQ(h.EstimateRange(20000, 30000), 0);
  EXPECT_EQ(h.EstimateRange(500, 400), 0);
}

TEST(HistogramTest, EqEstimateUsesPerBucketDistincts) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 100; ++v) {
    for (int r = 0; r < 50; ++r) values.push_back(v);
  }
  Histogram h = Histogram::FromValues(values, 20);
  EXPECT_NEAR(h.EstimateEq(37), 50, 10);
  EXPECT_EQ(h.EstimateEq(-5), 0);
  EXPECT_EQ(h.EstimateEq(100), 0);
  EXPECT_NEAR(h.distinct_count(), 100, 1);
}

TEST(HistogramTest, SkewedValuesDoNotStraddleBuckets) {
  std::vector<int64_t> values(5000, 7);  // a single heavy value
  for (int64_t i = 0; i < 1000; ++i) values.push_back(1000 + i);
  Histogram h = Histogram::FromValues(values, 50);
  EXPECT_NEAR(h.EstimateEq(7), 5000, 1);
}

TEST(HistogramTest, EmptyHistogramEstimatesZero) {
  Histogram h;
  EXPECT_EQ(h.EstimateRange(0, 10), 0);
  EXPECT_EQ(h.EstimateEq(0), 0);
}

// ------------------------------------------------------------------- Yao

TEST(YaoTest, BoundsAndLimits) {
  const int64_t pages = 1000, m = 50;
  EXPECT_EQ(YaoEstimate(pages, m, 0), 0);
  EXPECT_NEAR(YaoEstimate(pages, m, pages * m), pages, 1e-6);
  for (int64_t k : {1, 10, 100, 1000, 10'000}) {
    double est = YaoEstimate(pages, m, k);
    EXPECT_GE(est, static_cast<double>(PageCountLowerBound(m, k)) - 1e-6);
    EXPECT_LE(est, static_cast<double>(PageCountUpperBound(pages, k)) + 1e-6);
  }
}

TEST(YaoTest, MonotoneInQualifyingRows) {
  double prev = 0;
  for (int64_t k = 0; k <= 50'000; k += 1000) {
    double est = YaoEstimate(1000, 50, k);
    EXPECT_GE(est, prev);
    prev = est;
  }
}

TEST(YaoTest, SmallKIsNearlyK) {
  // With few qualifying rows spread over many pages, each row should land
  // on its own page: E ≈ k.
  EXPECT_NEAR(YaoEstimate(100'000, 50, 100), 100, 1);
}

TEST(YaoTest, CardenasApproximatesYao) {
  for (int64_t k : {100, 1000, 10'000}) {
    double yao = YaoEstimate(1000, 50, k);
    double car = CardenasEstimate(1000, k);
    EXPECT_NEAR(car, yao, 0.05 * yao + 1);
  }
}

TEST(YaoTest, BoundsHelpers) {
  EXPECT_EQ(PageCountLowerBound(50, 100), 2);
  EXPECT_EQ(PageCountLowerBound(50, 101), 3);
  EXPECT_EQ(PageCountLowerBound(50, 0), 0);
  EXPECT_EQ(PageCountUpperBound(1000, 100), 100);
  EXPECT_EQ(PageCountUpperBound(1000, 5000), 1000);
}

// ------------------------------------------------------- Range extraction

TEST(RangeExtractionTest, IntersectsAtoms) {
  Predicate pred({PredicateAtom::Int64(0, CmpOp::kGe, 10),
                  PredicateAtom::Int64(0, CmpOp::kLt, 100),
                  PredicateAtom::Int64(1, CmpOp::kEq, 5)});
  auto r0 = ExtractColumnRange(pred, 0);
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->lo, 10);
  EXPECT_EQ(r0->hi, 99);
  EXPECT_EQ(r0->atoms.size(), 2u);
  auto r1 = ExtractColumnRange(pred, 1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->lo, 5);
  EXPECT_EQ(r1->hi, 5);
  EXPECT_FALSE(ExtractColumnRange(pred, 2).has_value());
}

TEST(RangeExtractionTest, NeIsNotSargable) {
  Predicate pred({PredicateAtom::Int64(0, CmpOp::kNe, 10)});
  EXPECT_FALSE(ExtractColumnRange(pred, 0).has_value());
}

TEST(RangeExtractionTest, RemoveAtomsKeepsOrder) {
  PredicateAtom a = PredicateAtom::Int64(0, CmpOp::kLt, 1);
  PredicateAtom b = PredicateAtom::Int64(1, CmpOp::kLt, 2);
  PredicateAtom c = PredicateAtom::Int64(2, CmpOp::kLt, 3);
  Predicate pred({a, b, c});
  Predicate removed = RemoveAtoms(pred, Predicate({b}));
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_TRUE(removed.atoms()[0].SameAs(a));
  EXPECT_TRUE(removed.atoms()[1].SameAs(c));
}

// ------------------------------------------------- Enumeration & costing

class OptimizerTest : public SyntheticDbTest {
 protected:
  void SetUp() override {
    SyntheticDbTest::SetUp();
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t_));
  }

  SingleTableQuery Query(int col, CmpOp op, int64_t v) {
    SingleTableQuery q;
    q.table = t_;
    q.pred.Add(PredicateAtom::Int64(col, op, v));
    q.count_star = true;
    q.count_col = kPadding;
    return q;
  }

  StatisticsCatalog stats_;
  OptimizerHints hints_;
};

TEST_F(OptimizerTest, TableScanAlwaysEnumerated) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(q));
  ASSERT_EQ(paths.size(), 1u) << "no sargable atoms: scan only";
  EXPECT_EQ(paths[0].kind, AccessKind::kTableScan);
}

TEST_F(OptimizerTest, SeekEnumeratedPerUsableIndex) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC3, CmpOp::kLt, 1000));
  q.pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 1000));
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(q));
  int scans = 0, seeks = 0, intersections = 0;
  for (const auto& p : paths) {
    scans += p.kind == AccessKind::kTableScan;
    seeks += p.kind == AccessKind::kIndexSeek;
    intersections += p.kind == AccessKind::kIndexIntersection;
  }
  EXPECT_EQ(scans, 1);
  EXPECT_EQ(seeks, 2);
  EXPECT_EQ(intersections, 1);
}

TEST_F(OptimizerTest, ClusteredRangeBeatsScanForKeyPredicate) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(AccessPathPlan best,
                       opt.OptimizeSingleTable(Query(kC1, CmpOp::kLt, 500)));
  EXPECT_EQ(best.kind, AccessKind::kClusteredRange);
}

TEST_F(OptimizerTest, CoveringScanRequiresAllReferencedColumns) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  // COUNT(*) referencing only C2 via the predicate: T_c2 covers it.
  SingleTableQuery covered = Query(kC2, CmpOp::kLt, 500);
  covered.count_col = -1;
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(covered));
  bool has_covering = false;
  for (const auto& p : paths) {
    has_covering |= p.kind == AccessKind::kCoveringScan;
  }
  EXPECT_TRUE(has_covering);
  // COUNT(padding): nothing covers.
  ASSERT_OK_AND_ASSIGN(auto paths2,
                       opt.EnumerateAccessPaths(Query(kC2, CmpOp::kLt, 500)));
  for (const auto& p : paths2) {
    EXPECT_NE(p.kind, AccessKind::kCoveringScan);
  }
}

TEST_F(OptimizerTest, YaoDpcMakesScanWinOnLowSelectivityCorrelated) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(AccessPathPlan best,
                       opt.OptimizeSingleTable(Query(kC2, CmpOp::kLt, 400)));
  EXPECT_EQ(best.kind, AccessKind::kTableScan)
      << "without feedback, Yao overestimates DPC and the scan wins";
  EXPECT_EQ(best.Describe().find("hint"), std::string::npos);
}

TEST_F(OptimizerTest, DpcHintFlipsScanToSeek) {
  SingleTableQuery q = Query(kC2, CmpOp::kLt, 400);
  Predicate sargable = q.pred;
  hints_.SetDpc(SelPredKey(*t_, sargable), 5.0);  // the truth
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(AccessPathPlan best, opt.OptimizeSingleTable(q));
  EXPECT_EQ(best.kind, AccessKind::kIndexSeek);
  EXPECT_EQ(best.dpc_source, "hint");
  EXPECT_EQ(best.est_dpc, 5.0);
}

TEST_F(OptimizerTest, CardinalityHintOverridesHistogram) {
  SingleTableQuery q = Query(kC5, CmpOp::kLt, 10'000);
  hints_.SetCardinality(SelPredKey(*t_, q.pred), 17.0);
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(q));
  for (const auto& p : paths) {
    EXPECT_EQ(p.est_rows, 17.0) << p.Describe();
  }
}

TEST_F(OptimizerTest, HistogramCardinalityCloseForUniformColumn) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  SingleTableQuery q = Query(kC4, CmpOp::kLt, 5000);
  double est = opt.cardinality().EstimateRows(*t_, q.pred);
  EXPECT_NEAR(est, 4999, 250);
}

TEST_F(OptimizerTest, ExpectedAtomEvalsReflectsShortCircuit) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  // Single atom: exactly 1 eval per row.
  EXPECT_DOUBLE_EQ(
      opt.ExpectedAtomEvals(*t_, Query(kC2, CmpOp::kLt, 400).pred), 1.0);
  // Low-selectivity first atom: the second is rarely evaluated.
  Predicate two({PredicateAtom::Int64(kC2, CmpOp::kLt, 400),
                 PredicateAtom::Int64(kC5, CmpOp::kLt, 400)});
  double evals = opt.ExpectedAtomEvals(*t_, two);
  EXPECT_GT(evals, 1.0);
  EXPECT_LT(evals, 1.1);
  EXPECT_EQ(opt.ExpectedAtomEvals(*t_, Predicate()), 0.0);
}

TEST_F(OptimizerTest, CostModelPrefersFewerRandomReads) {
  CostModel cm;
  Index* ix = db_->GetIndex("T_c2");
  double cheap = cm.IndexSeek(*ix, 1000, 15, 0);
  double costly = cm.IndexSeek(*ix, 1000, 900, 0);
  EXPECT_LT(cheap, costly);
  // 15 pages for 1000 rows is the co-clustered lower bound: charged as a
  // sequential run. 900 pages is scattered: charged as random fetches.
  uint32_t m = t_->rows_per_page();
  EXPECT_NEAR(cm.FetchIo(15, 1000, m),
              cm.params().rand_read_ms + 15 * cm.params().seq_read_ms,
              1e-9);
  EXPECT_NEAR(cm.FetchIo(900, 1000, m), 900 * cm.params().rand_read_ms,
              1e-9);
}

TEST_F(OptimizerTest, EstimateDpcPrefersHintOverYao) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  Predicate expr({PredicateAtom::Int64(kC2, CmpOp::kLt, 400)});
  std::string source;
  double yao = opt.EstimateDpc(*t_, expr, 399, &source);
  EXPECT_EQ(source, "yao");
  EXPECT_NEAR(yao, YaoEstimate(t_->page_count(), t_->rows_per_page(), 399),
              1e-9);
  hints_.SetDpc(SelPredKey(*t_, expr), 7.0);
  EXPECT_EQ(opt.EstimateDpc(*t_, expr, 399, &source), 7.0);
  EXPECT_EQ(source, "hint");
}

class JoinOptimizerTest : public OptimizerTest {
 protected:
  void SetUp() override {
    OptimizerTest::SetUp();
    SyntheticOptions s1;
    s1.num_rows = 20'000;
    s1.seed = 1234;
    s1.build_indexes = false;
    auto t1 = BuildSyntheticTable(db_.get(), "T1", s1);
    ASSERT_TRUE(t1.ok());
    t1_ = *t1;
    ASSERT_OK(
        db_->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
            .status());
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t1_));
  }

  JoinQuery JQ(int ci, int64_t limit) {
    JoinQuery q;
    q.outer_table = t1_;
    q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, limit));
    q.outer_col = ci;
    q.inner_table = t_;
    q.inner_col = ci;
    q.inner_count_col = kPadding;
    return q;
  }

  Table* t1_ = nullptr;
};

TEST_F(JoinOptimizerTest, EnumeratesAllThreeMethods) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(auto plans, opt.EnumerateJoinPlans(JQ(kC3, 500)));
  std::set<JoinMethod> methods;
  for (const auto& p : plans) methods.insert(p.method);
  EXPECT_EQ(methods.size(), 3u);
}

TEST_F(JoinOptimizerTest, InlRequiresIndexOnInnerJoinColumn) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  // Swap roles: inner T1 has no index on C3 => no INL plan.
  JoinQuery q;
  q.outer_table = t_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 500));
  q.outer_col = kC3;
  q.inner_table = t1_;
  q.inner_col = kC3;
  ASSERT_OK_AND_ASSIGN(auto plans, opt.EnumerateJoinPlans(q));
  for (const auto& p : plans) {
    EXPECT_NE(p.method, JoinMethod::kIndexNestedLoops);
  }
}

TEST_F(JoinOptimizerTest, JoinDpcHintFlipsHashToInl) {
  JoinQuery q = JQ(kC2, 400);
  {
    Optimizer opt(db_.get(), &stats_, &hints_);
    ASSERT_OK_AND_ASSIGN(JoinPlan best, opt.OptimizeJoin(q));
    EXPECT_EQ(best.method, JoinMethod::kHashJoin);
  }
  hints_.SetDpc(JoinPredKey(*t1_, kC2, *t_, kC2), 5.0);
  {
    Optimizer opt(db_.get(), &stats_, &hints_);
    ASSERT_OK_AND_ASSIGN(JoinPlan best, opt.OptimizeJoin(q));
    EXPECT_EQ(best.method, JoinMethod::kIndexNestedLoops);
    EXPECT_EQ(best.dpc_source, "hint");
  }
}

TEST_F(JoinOptimizerTest, MergeJoinSortFlagsFollowClustering) {
  Optimizer opt(db_.get(), &stats_, &hints_);
  // Join on the clustering columns themselves: no sorts needed.
  JoinQuery q;
  q.outer_table = t1_;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 500));
  q.outer_col = kC1;
  q.inner_table = t_;
  q.inner_col = kC1;
  ASSERT_OK_AND_ASSIGN(auto plans, opt.EnumerateJoinPlans(q));
  for (const auto& p : plans) {
    if (p.method == JoinMethod::kMergeJoin) {
      EXPECT_FALSE(p.sort_outer);
      EXPECT_FALSE(p.sort_inner);
    }
  }
  // Join on C5: both sides need sorting.
  ASSERT_OK_AND_ASSIGN(auto plans2, opt.EnumerateJoinPlans(JQ(kC5, 500)));
  for (const auto& p : plans2) {
    if (p.method == JoinMethod::kMergeJoin) {
      EXPECT_TRUE(p.sort_outer);
      EXPECT_TRUE(p.sort_inner);
    }
  }
}

TEST_F(JoinOptimizerTest, JoinPredKeyIsOrderInsensitive) {
  EXPECT_EQ(JoinPredKey(*t1_, kC2, *t_, kC2),
            JoinPredKey(*t_, kC2, *t1_, kC2));
  EXPECT_NE(JoinPredKey(*t1_, kC2, *t_, kC2),
            JoinPredKey(*t1_, kC3, *t_, kC3));
}

}  // namespace
}  // namespace dpcf
