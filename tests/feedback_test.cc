// Feedback-layer tests: MonitorManager request selection, FeedbackStore,
// RunStatistics XML output, ClusteringRatio, exact-cardinality helpers.

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/clustering_ratio.h"
#include "core/feedback_driver.h"
#include "core/feedback_store.h"
#include "core/monitor_manager.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"

namespace dpcf {
namespace {

using dpcf::testing::MatchesRow;
using dpcf::testing::ScopedSimd;
using dpcf::testing::SyntheticDbTest;

// --------------------------------------------------------- MonitorManager

class MonitorManagerTest : public SyntheticDbTest {
 protected:
  void SetUp() override {
    SyntheticDbTest::SetUp();
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t_));
  }
  StatisticsCatalog stats_;
  OptimizerHints hints_;
};

TEST_F(MonitorManagerTest, ScanPlanRequestsOneExprPerUsableIndex) {
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC3, CmpOp::kLt, 1000));
  q.pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 1000));

  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(q));
  const AccessPathPlan* scan = nullptr;
  for (const auto& p : paths) {
    if (p.kind == AccessKind::kTableScan) scan = &p;
  }
  ASSERT_NE(scan, nullptr);

  MonitorManager mm(db_.get());
  ASSERT_OK_AND_ASSIGN(InstrumentedHooks ih, mm.ForSingleTable(*scan, q));
  // Expressions: sargable C3, sargable C5, and the full conjunction.
  EXPECT_EQ(ih.hooks.outer_scan_requests.size(), 3u);
  EXPECT_TRUE(ih.hooks.fetch_requests.empty());
  EXPECT_FALSE(ih.hooks.bitvector.has_value());
  EXPECT_EQ(ih.entries.size(), 3u);
  // The full conjunction equals the pushed predicate => prefix-free; the
  // single-column expressions are non-prefix (C5 atom alone) or prefix
  // (C3 atom is the leading atom).
  bool saw_full = false;
  for (const auto& e : ih.entries) {
    if (e.expr.size() == 2) saw_full = true;
    EXPECT_EQ(e.table, t_);
    EXPECT_FALSE(e.is_join);
  }
  EXPECT_TRUE(saw_full);
}

TEST_F(MonitorManagerTest, DuplicateExpressionsDeduplicated) {
  // Single-atom predicate: the sargable expr for T_c2 IS the full pred.
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 500));
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(auto paths, opt.EnumerateAccessPaths(q));
  const AccessPathPlan* scan = nullptr;
  for (const auto& p : paths) {
    if (p.kind == AccessKind::kTableScan) scan = &p;
  }
  MonitorManager mm(db_.get());
  ASSERT_OK_AND_ASSIGN(InstrumentedHooks ih, mm.ForSingleTable(*scan, q));
  EXPECT_EQ(ih.hooks.outer_scan_requests.size(), 1u);
}

TEST_F(MonitorManagerTest, IndexPlanGetsFetchMonitors) {
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 500));
  q.pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 15'000));

  hints_.SetDpc(
      SelPredKey(*t_, Predicate({PredicateAtom::Int64(kC2, CmpOp::kLt,
                                                      500)})),
      7.0);
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(AccessPathPlan best, opt.OptimizeSingleTable(q));
  ASSERT_EQ(best.kind, AccessKind::kIndexSeek);

  MonitorManager mm(db_.get());
  ASSERT_OK_AND_ASSIGN(InstrumentedHooks ih, mm.ForSingleTable(best, q));
  ASSERT_EQ(ih.hooks.fetch_requests.size(), 2u);
  EXPECT_FALSE(ih.hooks.fetch_requests[0].passing_residual_only);
  EXPECT_TRUE(ih.hooks.fetch_requests[1].passing_residual_only);
  EXPECT_TRUE(ih.hooks.outer_scan_requests.empty());
}

TEST_F(MonitorManagerTest, SmallTableRaisesSampleFraction) {
  SingleTableQuery q;
  q.table = t_;  // ~250 pages
  q.count_star = true;
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 500));
  Optimizer opt(db_.get(), &stats_, &hints_);
  ASSERT_OK_AND_ASSIGN(AccessPathPlan best, opt.OptimizeSingleTable(q));
  MonitorOptions opts;
  opts.scan_sample_fraction = 0.01;
  opts.min_sampled_pages = 96;
  MonitorManager mm(db_.get(), opts);
  ASSERT_OK_AND_ASSIGN(InstrumentedHooks ih, mm.ForSingleTable(best, q));
  EXPECT_GT(ih.hooks.scan_sample_fraction, 0.3);
}

// ----------------------------------------------------------- FeedbackStore

TEST(FeedbackStoreTest, RecordLookupAndFreshestWins) {
  FeedbackStore store;
  MonitorRecord a;
  a.label = "T|C2<100";
  a.actual_dpc = 10;
  a.actual_cardinality = 99;
  a.exact = true;
  store.Record(a);
  MonitorRecord b = a;
  b.actual_dpc = 12;
  store.Record(b);
  EXPECT_EQ(store.size(), 1u);
  auto entry = store.Lookup("T|C2<100");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->dpc, 12);
  EXPECT_FALSE(store.Lookup("missing").has_value());
}

TEST(FeedbackStoreTest, ApplyToHintsInjectsDpcAndExactCards) {
  FeedbackStore store;
  MonitorRecord exact;
  exact.label = "k1";
  exact.actual_dpc = 5;
  exact.actual_cardinality = 50;
  exact.exact = true;
  store.Record(exact);
  MonitorRecord sampled;
  sampled.label = "k2";
  sampled.actual_dpc = 7;
  sampled.actual_cardinality = 70;
  sampled.exact = false;
  store.Record(sampled);

  OptimizerHints hints;
  store.ApplyToHints(&hints);
  EXPECT_EQ(hints.Dpc("k1"), 5.0);
  EXPECT_EQ(hints.Dpc("k2"), 7.0);
  EXPECT_EQ(hints.Cardinality("k1"), 50.0);
  EXPECT_FALSE(hints.Cardinality("k2").has_value())
      << "sampled cardinalities are not injected as exact";
}

TEST(FeedbackStoreTest, ClearEmptiesStore) {
  FeedbackStore store;
  MonitorRecord r;
  r.label = "x";
  store.Record(r);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Entries().empty());
}

// ----------------------------------------------------------- RunStatistics

TEST(RunStatisticsTest, XmlContainsMonitorsAndEstimates) {
  RunStatistics stats;
  stats.plan_text = "TableScan(T, C2<100)";
  stats.rows_returned = 1;
  stats.simulated_ms = 12.5;
  MonitorRecord m;
  m.table = "T";
  m.label = "T|C2<100";
  m.expr_text = "C2<100";
  m.mechanism = "prefix-exact";
  m.actual_dpc = 4;
  m.actual_cardinality = 99;
  m.exact = true;
  m.estimated_dpc = 212;
  m.estimated_cardinality = 100;
  stats.monitors.push_back(m);
  std::string xml = stats.ToXml();
  EXPECT_NE(xml.find("<RunStatistics>"), std::string::npos);
  EXPECT_NE(xml.find("mechanism=\"prefix-exact\""), std::string::npos);
  EXPECT_NE(xml.find("actualDpc=\"4.0\""), std::string::npos);
  EXPECT_NE(xml.find("estimatedDpc=\"212.0\""), std::string::npos);
  EXPECT_NE(xml.find("C2&lt;100"), std::string::npos) << "escaped";
}

TEST(RunStatisticsTest, DpcErrorFactorIsSymmetricRatio) {
  MonitorRecord m;
  m.actual_dpc = 10;
  m.estimated_dpc = 100;
  EXPECT_DOUBLE_EQ(m.DpcErrorFactor(), 10.0);
  m.estimated_dpc = 1;
  EXPECT_DOUBLE_EQ(m.DpcErrorFactor(), 10.0);
  m.estimated_dpc = -1;  // absent
  EXPECT_EQ(m.DpcErrorFactor(), 0.0);
}

// --------------------------------------------------------- ClusteringRatio

class ClusteringRatioTest : public SyntheticDbTest {};

TEST_F(ClusteringRatioTest, CorrelatedColumnHasLowRatio) {
  Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kLt, 1000)});
  ASSERT_OK_AND_ASSIGN(ClusteringRatioResult r,
                       ComputeClusteringRatio(db_->disk(), *t_, pred));
  EXPECT_EQ(r.qualifying_rows, 999);
  EXPECT_LT(r.ratio, 0.01);
  EXPECT_GE(r.actual_pages, r.lower_bound);
  EXPECT_LE(r.actual_pages, r.upper_bound);
}

TEST_F(ClusteringRatioTest, UncorrelatedColumnHasHighRatio) {
  Predicate pred({PredicateAtom::Int64(kC5, CmpOp::kLt, 1000)});
  ASSERT_OK_AND_ASSIGN(ClusteringRatioResult r,
                       ComputeClusteringRatio(db_->disk(), *t_, pred));
  EXPECT_GT(r.ratio, 0.8);
}

TEST_F(ClusteringRatioTest, IntermediateColumnsFallBetween) {
  Predicate p3({PredicateAtom::Int64(kC3, CmpOp::kLt, 1000)});
  Predicate p5({PredicateAtom::Int64(kC5, CmpOp::kLt, 1000)});
  Predicate p2({PredicateAtom::Int64(kC2, CmpOp::kLt, 1000)});
  ASSERT_OK_AND_ASSIGN(auto r2,
                       ComputeClusteringRatio(db_->disk(), *t_, p2));
  ASSERT_OK_AND_ASSIGN(auto r3,
                       ComputeClusteringRatio(db_->disk(), *t_, p3));
  ASSERT_OK_AND_ASSIGN(auto r5,
                       ComputeClusteringRatio(db_->disk(), *t_, p5));
  EXPECT_LT(r2.ratio, r3.ratio);
  EXPECT_LT(r3.ratio, r5.ratio);
}

TEST_F(ClusteringRatioTest, EmptyPredicateSelectsEverything) {
  ASSERT_OK_AND_ASSIGN(
      ClusteringRatioResult r,
      ComputeClusteringRatio(db_->disk(), *t_, Predicate()));
  EXPECT_EQ(r.qualifying_rows, t_->row_count());
  EXPECT_EQ(r.actual_pages, t_->page_count());
}

TEST_F(ClusteringRatioTest, NoMatchesYieldZero) {
  Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kLt, -5)});
  ASSERT_OK_AND_ASSIGN(ClusteringRatioResult r,
                       ComputeClusteringRatio(db_->disk(), *t_, pred));
  EXPECT_EQ(r.qualifying_rows, 0);
  EXPECT_EQ(r.actual_pages, 0);
  EXPECT_EQ(r.ratio, 0);
}

// ------------------------------------------------------ Exact cardinality

class ExactCardTest : public SyntheticDbTest {};

TEST_F(ExactCardTest, MatchesPermutationArithmetic) {
  Predicate pred({PredicateAtom::Int64(kC4, CmpOp::kLt, 777)});
  EXPECT_EQ(ExactCardinality(db_->disk(), *t_, pred), 776);
  Predicate both({PredicateAtom::Int64(kC2, CmpOp::kLe, 100),
                  PredicateAtom::Int64(kC1, CmpOp::kLe, 100)});
  EXPECT_EQ(ExactCardinality(db_->disk(), *t_, both), 100)
      << "C2 == C1, so the conjunction equals either alone";
}

TEST_F(ExactCardTest, JoinCardinalitiesOnPermutations) {
  SyntheticOptions s1;
  s1.num_rows = 20'000;
  s1.seed = 1234;
  s1.build_indexes = false;
  ASSERT_TRUE(BuildSyntheticTable(db_.get(), "T1", s1).ok());
  JoinQuery q;
  q.outer_table = db_->GetTable("T1");
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 501));
  q.outer_col = kC5;
  q.inner_table = t_;
  q.inner_col = kC5;
  ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities exact,
                       ExactJoinCardinality(db_->disk(), q));
  // Permutation columns: every outer key matches exactly one inner row.
  EXPECT_EQ(exact.join_rows, 500);
  EXPECT_EQ(exact.semi_join_rows, 500);

  // An inner selection shrinks join_rows but not semi_join_rows.
  q.inner_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLe, 10'000));
  ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities filtered,
                       ExactJoinCardinality(db_->disk(), q));
  EXPECT_EQ(filtered.semi_join_rows, 500);
  EXPECT_LT(filtered.join_rows, 500);
  EXPECT_GT(filtered.join_rows, 100);
}

TEST_F(ExactCardTest, JoinCardinalitiesCountDuplicateKeys) {
  // Keys drawn from a 40-value domain repeat on both sides, so the oracle
  // must count the filtered outer keys as a multiset.
  Schema schema({Column::Int64("k"), Column::Int64("v")});
  Rng rng(11);
  auto make = [&](const char* name, int rows) -> Table* {
    auto t = db_->CreateTable(name, schema, TableOrganization::kHeap);
    EXPECT_TRUE(t.ok());
    TableBuilder b(*t);
    for (int i = 0; i < rows; ++i) {
      EXPECT_OK(b.AddRow({Value::Int64(rng.NextInt(0, 39)), Value::Int64(i)}));
    }
    EXPECT_OK(b.Finish());
    return *t;
  };
  JoinQuery q;
  q.outer_table = make("dupOuter", 300);
  q.outer_pred.Add(PredicateAtom::Int64(1, CmpOp::kLt, 200));
  q.outer_col = 0;
  q.inner_table = make("dupInner", 500);
  q.inner_pred.Add(PredicateAtom::Int64(1, CmpOp::kGe, 100));
  q.inner_col = 0;

  // Brute-force nested loop over the raw rows.
  std::vector<int64_t> outer_keys;
  q.outer_table->file()->ForEachRawRow(
      db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
        if (MatchesRow(q.outer_pred, row)) {
          outer_keys.push_back(row.GetInt64(0));
        }
      });
  ExactJoinCardinalities expected;
  expected.outer_rows = static_cast<int64_t>(outer_keys.size());
  q.inner_table->file()->ForEachRawRow(
      db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
        const int64_t matches = std::count(
            outer_keys.begin(), outer_keys.end(), row.GetInt64(0));
        if (matches > 0) ++expected.semi_join_rows;
        if (!MatchesRow(q.inner_pred, row)) return;
        ++expected.inner_rows;
        expected.join_rows += matches;
      });
  // Multiplicity > 1 is what this test is about.
  ASSERT_GT(expected.join_rows, expected.semi_join_rows);

  ASSERT_OK_AND_ASSIGN(ExactJoinCardinalities exact,
                       ExactJoinCardinality(db_->disk(), q));
  EXPECT_EQ(exact.join_rows, expected.join_rows);
  EXPECT_EQ(exact.semi_join_rows, expected.semi_join_rows);
  EXPECT_EQ(exact.outer_rows, expected.outer_rows);
  EXPECT_EQ(exact.inner_rows, expected.inner_rows);
}

// Every exact oracle's answers over a set of predicates and joins, from
// the engine's page-at-a-time walks or from the row-at-a-time reference.
struct OracleAnswers {
  std::vector<int64_t> counts;         // ExactCardinality per predicate
  std::vector<int64_t> ratio_rows;     // ComputeClusteringRatio's rows...
  std::vector<int64_t> ratio_pages;    // ...and distinct pages
  std::vector<int64_t> join_rows;      // ExactJoinCardinality per join
  std::vector<int64_t> semi_join_rows;
  bool operator==(const OracleAnswers&) const = default;
};

class OracleEquivalenceTest : public SyntheticDbTest {
 protected:
  // (k INT64 over 40 values, v INT64 = row number, s CHAR(6) over five
  // words): duplicate join keys on both sides and a CHAR column to mix
  // into the predicates.
  Table* MakeTable(const char* name, int rows, Rng* rng) {
    Schema schema({Column::Int64("k"), Column::Int64("v"),
                   Column::Char("s", 6)});
    const char* words[] = {"ant", "bee", "cat", "dog", "eel"};
    auto t = db_->CreateTable(name, schema, TableOrganization::kHeap);
    EXPECT_TRUE(t.ok());
    TableBuilder b(*t);
    for (int i = 0; i < rows; ++i) {
      EXPECT_OK(b.AddRow({Value::Int64(rng->NextInt(0, 39)),
                          Value::Int64(i),
                          Value::String(words[rng->NextInt(0, 4)])}));
    }
    EXPECT_OK(b.Finish());
    return *t;
  }

  static PredicateAtom Str(CmpOp op, const char* word) {
    return PredicateAtom::String(kS, op, word, 6);
  }
  static PredicateAtom Int(int col, CmpOp op, int64_t v) {
    return PredicateAtom::Int64(col, op, v);
  }

  OracleAnswers Oracle(const std::vector<std::pair<Table*, Predicate>>& sels,
                       const std::vector<JoinQuery>& joins) {
    OracleAnswers out;
    for (const auto& [table, pred] : sels) {
      out.counts.push_back(ExactCardinality(db_->disk(), *table, pred));
      auto cr = ComputeClusteringRatio(db_->disk(), *table, pred);
      EXPECT_TRUE(cr.ok());
      out.ratio_rows.push_back(cr->qualifying_rows);
      out.ratio_pages.push_back(cr->actual_pages);
    }
    for (const JoinQuery& q : joins) {
      auto exact = ExactJoinCardinality(db_->disk(), q);
      EXPECT_TRUE(exact.ok());
      out.join_rows.push_back(exact->join_rows);
      out.semi_join_rows.push_back(exact->semi_join_rows);
    }
    return out;
  }

  OracleAnswers Reference(
      const std::vector<std::pair<Table*, Predicate>>& sels,
      const std::vector<JoinQuery>& joins) {
    OracleAnswers out;
    for (const auto& [table, pred] : sels) {
      int64_t rows = 0;
      std::set<PageNo> pages;
      table->file()->ForEachRawRow(
          db_->disk(), [&](PageNo p, uint16_t, const RowView& row) {
            if (!MatchesRow(pred, row)) return;
            ++rows;
            pages.insert(p);
          });
      out.counts.push_back(rows);
      out.ratio_rows.push_back(rows);
      out.ratio_pages.push_back(static_cast<int64_t>(pages.size()));
    }
    for (const JoinQuery& q : joins) {
      std::map<int64_t, int64_t> outer_keys;  // key -> multiplicity
      q.outer_table->file()->ForEachRawRow(
          db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
            if (MatchesRow(q.outer_pred, row)) {
              ++outer_keys[row.GetInt64(static_cast<size_t>(q.outer_col))];
            }
          });
      int64_t join_rows = 0;
      int64_t semi_join_rows = 0;
      q.inner_table->file()->ForEachRawRow(
          db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
            auto it = outer_keys.find(
                row.GetInt64(static_cast<size_t>(q.inner_col)));
            if (it == outer_keys.end()) return;
            ++semi_join_rows;
            if (MatchesRow(q.inner_pred, row)) join_rows += it->second;
          });
      out.join_rows.push_back(join_rows);
      out.semi_join_rows.push_back(semi_join_rows);
    }
    return out;
  }

  static constexpr int kK = 0;
  static constexpr int kV = 1;
  static constexpr int kS = 2;
};

TEST_F(OracleEquivalenceTest, PageOraclesMatchRowReferenceUnderEveryIsa) {
  Rng rng(31);
  Table* a = MakeTable("oracleA", 1000, &rng);
  Table* b = MakeTable("oracleB", 1500, &rng);
  for (const Table* t : {a, b}) {
    ASSERT_NE(t->row_count() % t->rows_per_page(), 0)
        << t->name() << ": the last page must be partial";
  }
  // Empty, INT64-only, CHAR-only, mixed in both orders, and a predicate
  // that matches nothing; on the small tables and on T.
  const std::vector<Predicate> preds = {
      Predicate(),
      Predicate({Int(kV, CmpOp::kLt, 300)}),
      Predicate({Str(CmpOp::kEq, "cat")}),
      Predicate({Int(kK, CmpOp::kGe, 10), Str(CmpOp::kNe, "dog")}),
      Predicate({Str(CmpOp::kGt, "bee"), Int(kV, CmpOp::kGe, 100),
                 Int(kK, CmpOp::kLt, 30)}),
      Predicate({Int(kK, CmpOp::kEq, 5), Int(kV, CmpOp::kGt, 5000)}),
  };
  std::vector<std::pair<Table*, Predicate>> sels;
  for (const Predicate& p : preds) {
    sels.emplace_back(a, p);
    sels.emplace_back(b, p);
  }
  sels.emplace_back(t_, Predicate());
  sels.emplace_back(t_, Predicate({Int(kC3, CmpOp::kLt, 4000),
                                   Int(kC5, CmpOp::kGe, 10'000)}));
  // Joins on k (duplicates on both sides), with and without an inner
  // predicate.
  std::vector<JoinQuery> joins;
  for (size_t outer : {0, 3}) {
    for (size_t inner : {0, 1, 3, 4}) {
      JoinQuery q;
      q.outer_table = a;
      q.outer_pred = preds[outer];
      q.outer_col = kK;
      q.inner_table = b;
      q.inner_pred = preds[inner];
      q.inner_col = kK;
      joins.push_back(std::move(q));
    }
  }

  const OracleAnswers want = Reference(sels, joins);
  ASSERT_GT(want.join_rows[0], want.semi_join_rows[0])
      << "keys repeat on the outer side";
  ASSERT_LT(want.join_rows[2], want.join_rows[0])
      << "the inner predicate filters join rows";
  ASSERT_EQ(want.semi_join_rows[2], want.semi_join_rows[0])
      << "but not semi-join rows";
  std::optional<OracleAnswers> first;
  for (SimdIsa isa : AvailableSimdIsas()) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimd pin(isa);
    const OracleAnswers got = Oracle(sels, joins);
    EXPECT_EQ(got.counts, want.counts);
    EXPECT_EQ(got.ratio_rows, want.ratio_rows);
    EXPECT_EQ(got.ratio_pages, want.ratio_pages);
    EXPECT_EQ(got.join_rows, want.join_rows);
    EXPECT_EQ(got.semi_join_rows, want.semi_join_rows);
    // The oracle does not follow the active ISA.
    if (first.has_value()) {
      EXPECT_TRUE(got == *first);
    } else {
      first = got;
    }
  }
}

// --------------------------------------------------------- FeedbackDriver

class FeedbackDriverTest : public SyntheticDbTest {
 protected:
  void SetUp() override {
    SyntheticDbTest::SetUp();
    ASSERT_OK(stats_.BuildAll(db_->disk(), *t_));
  }

  // The join side of the Fig 8 fixture: T1, 20k rows permuted
  // independently of T, indexed on its clustering column only.
  void AddT1(Table** t1) {
    SyntheticOptions s1;
    s1.num_rows = 20'000;
    s1.seed = 4242;
    s1.build_indexes = false;
    ASSERT_OK_AND_ASSIGN(*t1, BuildSyntheticTable(db_.get(), "T1", s1));
    ASSERT_OK(db_->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
                  .status());
    ASSERT_OK(stats_.BuildAll(db_->disk(), **t1));
  }

  StatisticsCatalog stats_;
};

TEST_F(FeedbackDriverTest, FeedbackReusedAcrossSimilarQueries) {
  FeedbackDriver driver(db_.get(), &stats_, {});
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 400));
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome first, driver.RunSingleTable(q));
  EXPECT_TRUE(first.plan_changed);
  // The store now holds the DPC for this expression...
  EXPECT_GE(driver.store()->size(), 1u);
  // ...so re-optimizing the same query starts from the corrected plan.
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome second, driver.RunSingleTable(q));
  EXPECT_FALSE(second.plan_changed);
  EXPECT_NE(second.plan_before.find("IndexSeek"), std::string::npos);
}

TEST_F(FeedbackDriverTest, MonitoredRunReportsEstimatesAndActuals) {
  FeedbackDriver driver(db_.get(), &stats_, {});
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC3, CmpOp::kLt, 600));
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome outcome, driver.RunSingleTable(q));
  ASSERT_FALSE(outcome.feedback.empty());
  for (const MonitorRecord& m : outcome.feedback) {
    EXPECT_GE(m.estimated_dpc, 0) << m.label;
    EXPECT_GE(m.estimated_cardinality, 0) << m.label;
  }
  // XML report renders.
  std::string xml = outcome.monitored_run.ToXml();
  EXPECT_NE(xml.find("PageCount"), std::string::npos);
}

TEST_F(FeedbackDriverTest, PersistentMisestimationAdvisesReoptimization) {
  FeedbackRunOptions options;
  // Without this the driver's self-tuning DPC histograms silently fix the
  // estimate after one run and there is no drift left to detect.
  options.learn_dpc_histograms = false;
  options.drift.threshold_factor = 4.0;
  options.drift.consecutive_k = 3;
  FeedbackDriver driver(db_.get(), &stats_, options);
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  // C2 is the identity permutation: Yao's independence assumption
  // overestimates its DPC by far more than the 4x threshold.
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 400));
  for (int run = 0; run < 3; ++run) {
    // Discard the correction between runs (fig6's per-query methodology):
    // the optimizer keeps mis-estimating the same expression, which is
    // exactly the drift the monitor exists to flag.
    driver.hints()->Clear();
    driver.store()->Clear();
    ASSERT_OK_AND_ASSIGN(FeedbackOutcome out, driver.RunSingleTable(q));
    EXPECT_EQ(out.reoptimization_advised, run == 2) << "run " << run;
  }
  const std::vector<DriftAlert> alerts =
      driver.drift_monitor()->ActiveAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].table, "T");
  EXPECT_GT(alerts[0].ewma_q_error, 4.0);

  // Keeping the feedback makes the next run's estimate accurate, which
  // clears the alert: advice stops as soon as the correction sticks.
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome fixed, driver.RunSingleTable(q));
  EXPECT_FALSE(fixed.reoptimization_advised);
  EXPECT_TRUE(driver.drift_monitor()->ActiveAlerts().empty());
}

TEST_F(FeedbackDriverTest, CardinalityInjectionCanBeDisabled) {
  FeedbackRunOptions options;
  options.inject_accurate_cardinalities = false;
  FeedbackDriver driver(db_.get(), &stats_, options);
  SingleTableQuery q;
  q.table = t_;
  q.count_star = true;
  q.count_col = kPadding;
  q.pred.Add(PredicateAtom::Int64(kC2, CmpOp::kLt, 400));
  ASSERT_OK_AND_ASSIGN(FeedbackOutcome outcome, driver.RunSingleTable(q));
  // No pre-run injection happened; any cardinality hints present were
  // deposited by the feedback store (exact monitor observations).
  for (const auto& e : driver.store()->Entries()) {
    EXPECT_NE(e.mechanism, "") << e.key;
  }
  EXPECT_GT(driver.hints()->num_dpc_hints(), 0u);
  // Histograms are accurate on permutations, so the flow still works.
  EXPECT_GE(outcome.speedup, 0.0);
}

// The whole loop pinned to exact figures on the paper's generators: Fig 6
// (seed 2008) and Fig 8 (seed 1717) at 20k rows. Each query starts from
// empty feedback and then runs once more on its own feedback, so the
// re-planned index seeks and INL joins are monitored too. Simulated time is
// deterministic: a changed plan, charge or monitor record moves at least
// one of these figures. Tables are build-once, so no run — baseline,
// monitored or re-planned — writes a page.
TEST_F(FeedbackDriverTest, OutcomesArePinned) {
  Table* t1 = nullptr;
  ASSERT_NO_FATAL_FAILURE(AddT1(&t1));

  FeedbackRunOptions options;
  options.learn_dpc_histograms = false;
  FeedbackDriver driver(db_.get(), &stats_, options);
  int plans_changed = 0;
  double before_ms = 0, after_ms = 0, monitored_ms = 0, actual_dpc = 0;
  int64_t run_writes = 0;
  std::vector<std::string> labels;
  auto run_twice = [&](auto run) {
    driver.hints()->Clear();
    driver.store()->Clear();
    for (int pass = 0; pass < 2; ++pass) {
      Result<FeedbackOutcome> o = run();
      ASSERT_TRUE(o.ok()) << o.status().ToString();
      plans_changed += o->plan_changed ? 1 : 0;
      before_ms += o->time_before_ms;
      after_ms += o->time_after_ms;
      monitored_ms += o->monitored_run.simulated_ms;
      run_writes += o->baseline_run.io.physical_writes +
                    o->monitored_run.io.physical_writes +
                    o->improved_run.io.physical_writes;
      for (const MonitorRecord& r : o->feedback) {
        actual_dpc += r.actual_dpc;
        labels.push_back(r.label);
      }
    }
  };
  for (const GeneratedSingleQuery& g :
       GenerateSyntheticSingleTableQueries(t_, 1, 0.01, 0.10, 2008)) {
    run_twice([&] { return driver.RunSingleTable(g.query); });
  }
  for (const GeneratedJoinQuery& g :
       GenerateSyntheticJoinQueries(t_, t1, 6, 0.005, 0.07, 1717)) {
    run_twice([&] { return driver.RunJoin(g.query); });
  }
  EXPECT_EQ(run_writes, 0);
  EXPECT_EQ(plans_changed, 5);
  EXPECT_EQ(before_ms, 538.36450000000002);
  EXPECT_EQ(after_ms, 476.77990000000011);
  EXPECT_EQ(monitored_ms, 543.05947999999989);
  EXPECT_EQ(actual_dpc, 1398.5515232294708);
  const std::vector<std::string> want = {
      "T|C2<1395",        "T|C2<1395",        "T|C3<1067",
      "T|C3<1067",        "T|C4<218",         "T|C4<218",
      "T|C5<1743",        "T|C5<1743",        "T1|C1<1397",
      "JOIN(T.C2=T1.C2)", "T1|C1<1397",       "JOIN(T.C2=T1.C2)",
      "T1|C1<895",        "JOIN(T.C3=T1.C3)", "T1|C1<895",
      "JOIN(T.C3=T1.C3)", "T1|C1<910",        "JOIN(T.C4=T1.C4)",
      "T1|C1<910",        "JOIN(T.C4=T1.C4)", "T1|C1<871",
      "JOIN(T.C5=T1.C5)", "T1|C1<871",        "JOIN(T.C5=T1.C5)",
      "T1|C1<353",        "JOIN(T.C2=T1.C2)", "T1|C1<353",
      "JOIN(T.C2=T1.C2)", "T1|C1<679",        "JOIN(T.C3=T1.C3)",
      "T1|C1<679",        "JOIN(T.C3=T1.C3)"};
  EXPECT_EQ(labels, want);
}

// The join inject walks T1 and T once each: the join oracle's walks also
// count both filtered sides, which the full-conjunction hints take. Every
// cold-cache reset zeroes IoStats, so a page held pinned here makes the
// first one fail and RunJoin stop right after its inject (and optimize),
// with the raw reads still on the counter.
TEST_F(FeedbackDriverTest, JoinInjectWalksEachTableOnce) {
  Table* t1 = nullptr;
  ASSERT_NO_FATAL_FAILURE(AddT1(&t1));
  JoinQuery q;
  q.outer_table = t1;
  q.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, 601));
  q.outer_col = kC3;
  q.inner_table = t_;
  q.inner_col = kC3;
  q.count_star = true;
  q.inner_count_col = kPadding;
  ASSERT_OK_AND_ASSIGN(PageGuard pin,
                       db_->buffer_pool()->Fetch(PageId{t_->segment(), 0}));
  for (bool inner_pred : {false, true}) {
    SCOPED_TRACE(inner_pred ? "inner predicate" : "no inner predicate");
    if (inner_pred) {
      q.inner_pred.Add(PredicateAtom::Int64(kC5, CmpOp::kLt, 10'000));
    }
    FeedbackDriver driver(db_.get(), &stats_, {});
    const int64_t raw_before = db_->disk()->io_stats()->raw_page_reads;
    EXPECT_FALSE(driver.RunJoin(q).ok());
    EXPECT_EQ(db_->disk()->io_stats()->raw_page_reads - raw_before,
              t1->page_count() + t_->page_count());
    // The hints are the exact counts.
    EXPECT_EQ(driver.hints()->Cardinality(SelPredKey(*t1, q.outer_pred)),
              600);
    EXPECT_EQ(driver.hints()->Cardinality(SelPredKey(*t_, q.inner_pred)),
              inner_pred ? std::optional<double>(9999) : std::nullopt);
    EXPECT_EQ(driver.hints()->Cardinality(
                  JoinPredKey(*t1, kC3, *t_, kC3)),
              static_cast<double>(
                  ExactJoinCardinality(db_->disk(), q)->join_rows));
  }
}

// The loaders write every page straight to the disk, once: building T, T1
// and their six indexes reads nothing through the buffer pool and leaves
// it empty, so the first cold run starts from a pool nothing has touched.
TEST_F(FeedbackDriverTest, BuildWritesEachPageOnceAroundThePool) {
  Table* t1 = nullptr;
  ASSERT_NO_FATAL_FAILURE(AddT1(&t1));
  int64_t pages = t_->page_count() + t1->page_count();
  for (const Index* index : db_->catalog().Indexes()) {
    pages += index->tree()->page_count();
  }
  EXPECT_EQ(pages, 854);
  const IoStats& io = *db_->disk()->io_stats();
  EXPECT_EQ(db_->buffer_pool()->cached_pages(), 0u);
  EXPECT_EQ(io.logical_reads, 0);
  EXPECT_EQ(io.physical_writes, pages);
}

// The bulk-built index shapes the cost model reads (height, leaf capacity,
// entries, pages) for every index of the 20k-row fixture. Each tree is 59
// leaves of up to 340 entries (8 KiB pages) under one root, and nothing
// else.
TEST_F(FeedbackDriverTest, IndexShapesArePinned) {
  Table* t1 = nullptr;
  ASSERT_NO_FATAL_FAILURE(AddT1(&t1));
  std::vector<std::string> names;
  for (const Index* index : db_->catalog().Indexes()) {
    names.push_back(index->name());
    const Btree& tree = *index->tree();
    EXPECT_EQ(tree.height(), 2u) << index->name();
    EXPECT_EQ(tree.leaf_capacity(), 340u) << index->name();
    EXPECT_EQ(tree.entry_count(), 20'000) << index->name();
    EXPECT_EQ(tree.page_count(), 60u) << index->name();
  }
  EXPECT_EQ(names, (std::vector<std::string>{"T1_c1", "T_c1", "T_c2", "T_c3",
                                             "T_c4", "T_c5"}));
}

}  // namespace
}  // namespace dpcf
