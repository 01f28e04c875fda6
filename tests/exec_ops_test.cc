// Operator tests: every access method and join method verified against a
// brute-force reference executor over the same data, plus monitor-placement
// and accounting behaviour.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/index_ops.h"
#include "exec/join_ops.h"
#include "exec/rel_ops.h"
#include "exec/scan_ops.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using dpcf::testing::SyntheticDbTest;

class ExecOpsTest : public SyntheticDbTest {
 protected:
  // Brute-force reference: ids (C1 values) of rows satisfying pred.
  std::vector<int64_t> Reference(const Predicate& pred) {
    std::vector<int64_t> out;
    t_->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          if (pred.Matches(row)) out.push_back(row.GetInt64(kC1));
        });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<int64_t> Drain(Operator* op) {
    ExecContext ctx(db_->buffer_pool());
    auto result = ExecutePlan(op, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<int64_t> out;
    for (const Tuple& t : result->output) out.push_back(t[0].AsInt64());
    std::sort(out.begin(), out.end());
    return out;
  }

  Predicate TwoAtomPred() {
    return Predicate({PredicateAtom::Int64(kC3, CmpOp::kLt, 4000),
                      PredicateAtom::Int64(kC5, CmpOp::kGe, 10'000)});
  }
};

TEST_F(ExecOpsTest, TableScanMatchesReference) {
  Predicate pred = TwoAtomPred();
  TableScanOp scan(t_, pred, {kC1});
  EXPECT_EQ(Drain(&scan), Reference(pred));
}

TEST_F(ExecOpsTest, TableScanEmptyPredicateReturnsAllRows) {
  TableScanOp scan(t_, Predicate(), {kC1});
  EXPECT_EQ(Drain(&scan).size(), static_cast<size_t>(t_->row_count()));
}

TEST_F(ExecOpsTest, TableScanChargesSequentialIo) {
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  TableScanOp scan(t_, Predicate(), {});
  auto result = ExecutePlan(&scan, &ctx);
  ASSERT_TRUE(result.ok());
  const IoStats& io = result->stats.io;
  EXPECT_EQ(io.physical_reads(), t_->page_count());
  // First page is a seek; the rest stream.
  EXPECT_EQ(io.physical_rand_reads, 1);
  EXPECT_EQ(result->stats.cpu.rows_processed, t_->row_count());
}

TEST_F(ExecOpsTest, ClusteredRangeScanMatchesReference) {
  Predicate pred({PredicateAtom::Int64(kC1, CmpOp::kGe, 5000),
                  PredicateAtom::Int64(kC1, CmpOp::kLe, 5999),
                  PredicateAtom::Int64(kC5, CmpOp::kLt, 15'000)});
  TableScanOp scan(t_, pred, {kC1}, nullptr, true,
                   ClusteredRange{db_->GetIndex("T_c1"), 5000, 5999});
  EXPECT_EQ(Drain(&scan), Reference(pred));
}

TEST_F(ExecOpsTest, ClusteredRangeScanTouchesOnlyRangePages) {
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  Predicate pred({PredicateAtom::Int64(kC1, CmpOp::kGe, 5000),
                  PredicateAtom::Int64(kC1, CmpOp::kLe, 5999)});
  TableScanOp scan(t_, pred, {}, nullptr, true,
                   ClusteredRange{db_->GetIndex("T_c1"), 5000, 5999});
  auto result = ExecutePlan(&scan, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.size(), 1000u);
  // 1000 rows / 81 per page = ~13 data pages (+ tree descent).
  EXPECT_LT(result->stats.io.logical_reads, 25);
}

TEST_F(ExecOpsTest, ClusteredRangeScanEmptyRange) {
  Predicate pred({PredicateAtom::Int64(kC1, CmpOp::kGt, 100'000)});
  TableScanOp scan(t_, pred, {kC1}, nullptr, true,
                   ClusteredRange{db_->GetIndex("T_c1"), 100'001, INT64_MAX});
  EXPECT_TRUE(Drain(&scan).empty());
}

TEST_F(ExecOpsTest, IndexSeekFetchMatchesReference) {
  Predicate pred({PredicateAtom::Int64(kC4, CmpOp::kGe, 300),
                  PredicateAtom::Int64(kC4, CmpOp::kLe, 1200)});
  auto source = std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c4"), BtreeKey::Min(300), BtreeKey::Max(1200));
  FetchOp fetch(t_, std::move(source), Predicate(), {kC1});
  EXPECT_EQ(Drain(&fetch), Reference(pred));
}

TEST_F(ExecOpsTest, FetchEvaluatesResidual) {
  Predicate full({PredicateAtom::Int64(kC4, CmpOp::kLe, 1000),
                  PredicateAtom::Int64(kC5, CmpOp::kLt, 10'000)});
  auto source = std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c4"), BtreeKey::Min(INT64_MIN), BtreeKey::Max(1000));
  Predicate residual({PredicateAtom::Int64(kC5, CmpOp::kLt, 10'000)});
  FetchOp fetch(t_, std::move(source), residual, {kC1});
  EXPECT_EQ(Drain(&fetch), Reference(full));
}

TEST_F(ExecOpsTest, IndexIntersectionMatchesReference) {
  Predicate full({PredicateAtom::Int64(kC3, CmpOp::kLt, 3000),
                  PredicateAtom::Int64(kC5, CmpOp::kLt, 3000)});
  std::vector<std::unique_ptr<IndexSeekSource>> seeks;
  seeks.push_back(std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c3"), BtreeKey::Min(INT64_MIN), BtreeKey::Max(2999)));
  seeks.push_back(std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c5"), BtreeKey::Min(INT64_MIN), BtreeKey::Max(2999)));
  auto source =
      std::make_unique<IndexIntersectionSource>(std::move(seeks));
  FetchOp fetch(t_, std::move(source), Predicate(), {kC1});
  EXPECT_EQ(Drain(&fetch), Reference(full));
}

TEST_F(ExecOpsTest, CoveringIndexScanProjectsKeyColumns) {
  Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kLt, 100)});
  CoveringIndexScanOp scan(db_->GetIndex("T_c2"), pred, {kC2});
  auto out = Drain(&scan);
  ASSERT_EQ(out.size(), 99u);
  EXPECT_EQ(out.front(), 1);
  EXPECT_EQ(out.back(), 99);
}

TEST_F(ExecOpsTest, FetchMonitorCountsSeekExpression) {
  Predicate pred({PredicateAtom::Int64(kC2, CmpOp::kLt, 811)});
  auto source = std::make_unique<IndexSeekSource>(
      db_->GetIndex("T_c2"), BtreeKey::Min(INT64_MIN), BtreeKey::Max(810));
  FetchMonitorRequest req;
  req.label = "seek";
  req.numbits = 4096;
  FetchOp fetch(t_, std::move(source), Predicate(), {}, {req});
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&fetch, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stats.monitors.size(), 1u);
  const MonitorRecord& m = result->stats.monitors[0];
  // C2 < 811 = first 810 rows: 10 contiguous pages.
  EXPECT_NEAR(m.actual_dpc, 10.0, 1.5);
  EXPECT_EQ(m.actual_cardinality, 810);
  EXPECT_FALSE(m.exact);
  EXPECT_GT(result->stats.cpu.monitor_hash_ops, 0);
}

TEST_F(ExecOpsTest, ScanMonitorGroupsPagesExactly) {
  Predicate pushed({PredicateAtom::Int64(kC2, CmpOp::kLt, 811)});
  auto bundle = std::make_unique<ScanMonitorBundle>(
      pushed, &t_->schema(), 1.0, 42);
  ScanExprRequest req;
  req.label = "full";
  req.expr = pushed;
  ASSERT_OK(bundle->AddRequest(req));
  TableScanOp scan(t_, pushed, {}, std::move(bundle));
  ASSERT_OK(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&scan, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stats.monitors.size(), 1u);
  EXPECT_EQ(result->stats.monitors[0].actual_dpc, 10);
  EXPECT_TRUE(result->stats.monitors[0].exact);
}

TEST_F(ExecOpsTest, SortOrdersByKey) {
  Predicate pred({PredicateAtom::Int64(kC5, CmpOp::kLt, 500)});
  auto scan = std::make_unique<TableScanOp>(t_, pred,
                                            std::vector<int>{kC5});
  SortOp sort(std::move(scan), 0);
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&sort, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.size(), 499u);
  for (size_t i = 1; i < result->output.size(); ++i) {
    EXPECT_LE(result->output[i - 1][0].AsInt64(),
              result->output[i][0].AsInt64());
  }
}

TEST_F(ExecOpsTest, AggregateCountCountsRows) {
  Predicate pred({PredicateAtom::Int64(kC3, CmpOp::kLe, 123)});
  auto scan = std::make_unique<TableScanOp>(t_, pred, std::vector<int>{});
  AggregateCountOp agg(std::move(scan));
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&agg, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.size(), 1u);
  EXPECT_EQ(result->output[0][0].AsInt64(), 123);
}

TEST_F(ExecOpsTest, TupleFilterApplies) {
  auto scan = std::make_unique<TableScanOp>(
      t_, Predicate({PredicateAtom::Int64(kC1, CmpOp::kLe, 100)}),
      std::vector<int>{kC1});
  TupleFilterOp filter(std::move(scan),
                       {TupleAtom{0, CmpOp::kGt, Value::Int64(90)}});
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&filter, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.size(), 10u);
}

TEST_F(ExecOpsTest, DescribeTreeRendersNestedPlan) {
  auto scan = std::make_unique<TableScanOp>(t_, Predicate(),
                                            std::vector<int>{});
  AggregateCountOp agg(std::move(scan));
  std::string tree = DescribeTree(agg);
  EXPECT_NE(tree.find("Aggregate(COUNT)"), std::string::npos);
  EXPECT_NE(tree.find("  ClusteredIndexScan"), std::string::npos);
}

TEST_F(ExecOpsTest, ScanCloseMidStreamReleasesPins) {
  TableScanOp scan(t_, Predicate(), {kC1});
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK(scan.Open(&ctx));
  Tuple t;
  auto more = scan.Next(&ctx, &t);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  ASSERT_OK(scan.Close(&ctx));
  // All pins released: a cold reset must succeed.
  EXPECT_OK(db_->buffer_pool()->ColdReset());
}

TEST_F(ExecOpsTest, MergeJoinWithSortedInputsMatchesHash) {
  // Self-join T on C1 restricted to a band, via merge (clustered order)
  // and hash; both must agree.
  Predicate band({PredicateAtom::Int64(kC1, CmpOp::kGe, 100),
                  PredicateAtom::Int64(kC1, CmpOp::kLe, 300)});
  auto outer = std::make_unique<TableScanOp>(t_, band,
                                             std::vector<int>{kC1});
  auto inner = std::make_unique<TableScanOp>(t_, band,
                                             std::vector<int>{kC1});
  MergeJoinOp merge(std::move(outer), 0, std::move(inner), 0);
  ExecContext ctx(db_->buffer_pool());
  auto merged = ExecutePlan(&merge, &ctx);
  ASSERT_TRUE(merged.ok());

  auto outer2 = std::make_unique<TableScanOp>(t_, band,
                                              std::vector<int>{kC1});
  auto inner2 = std::make_unique<TableScanOp>(t_, band,
                                              std::vector<int>{kC1});
  HashJoinOp hash(std::move(outer2), 0, std::move(inner2), 0);
  ExecContext ctx2(db_->buffer_pool());
  auto hashed = ExecutePlan(&hash, &ctx2);
  ASSERT_TRUE(hashed.ok());
  EXPECT_EQ(merged->output.size(), hashed->output.size());
  EXPECT_EQ(merged->output.size(), 201u);
}

TEST_F(ExecOpsTest, MergeJoinHandlesDuplicateKeys) {
  // Build tiny heap tables with duplicate join keys: outer keys
  // {1,1,2,3}, inner keys {1,2,2,5} => 2*1 + 1*2 = 4 result rows.
  Schema schema({Column::Int64("k")});
  auto mk = [&](const char* name,
                std::vector<int64_t> keys) -> Table* {
    auto t = db_->CreateTable(name, schema, TableOrganization::kHeap);
    EXPECT_TRUE(t.ok());
    TableBuilder b(*t);
    for (int64_t k : keys) EXPECT_OK(b.AddRow({Value::Int64(k)}));
    EXPECT_OK(b.Finish());
    return *t;
  };
  Table* lhs = mk("dupL", {1, 1, 2, 3});
  Table* rhs = mk("dupR", {1, 2, 2, 5});
  auto outer = std::make_unique<TableScanOp>(lhs, Predicate(),
                                             std::vector<int>{0});
  auto inner = std::make_unique<TableScanOp>(rhs, Predicate(),
                                             std::vector<int>{0});
  MergeJoinOp merge(std::move(outer), 0, std::move(inner), 0);
  ExecContext ctx(db_->buffer_pool());
  auto result = ExecutePlan(&merge, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.size(), 4u);
}

}  // namespace
}  // namespace dpcf
