// Workload generator tests: synthetic table structure, real-world dataset
// clustering spread, TPC-H-like shape, query generators.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/clustering_ratio.h"
#include "core/feedback_driver.h"
#include "optimizer/plan.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "workload/realworld.h"
#include "workload/tpch_like.h"

namespace dpcf {
namespace {

using dpcf::testing::SyntheticDbTest;

class SyntheticWorkloadTest : public SyntheticDbTest {};

TEST_F(SyntheticWorkloadTest, SchemaAndShapeMatchThePaper) {
  EXPECT_EQ(t_->schema().num_columns(), 6u);
  EXPECT_EQ(t_->schema().row_size(), 100u) << "5×8 + 60-byte padding";
  EXPECT_EQ(t_->rows_per_page(), (kDefaultPageSize - 8) / 100);
  EXPECT_EQ(t_->row_count(), 20'000);
  EXPECT_EQ(t_->cluster_key_col(), kC1);
}

TEST_F(SyntheticWorkloadTest, ColumnsArePermutationsOfOneToN) {
  for (int col : {kC1, kC2, kC3, kC4, kC5}) {
    std::set<int64_t> seen;
    t_->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          seen.insert(row.GetInt64(static_cast<size_t>(col)));
        });
    EXPECT_EQ(seen.size(), 20'000u) << "col " << col;
    EXPECT_EQ(*seen.begin(), 1) << "col " << col;
    EXPECT_EQ(*seen.rbegin(), 20'000) << "col " << col;
  }
}

TEST_F(SyntheticWorkloadTest, CorrelationSpectrumIsOrdered) {
  // DPC for the same 1% selectivity must grow from C2 to C5 (at 1% the
  // C3/C4 shuffle windows are far from saturated, so the spectrum is
  // strictly ordered).
  std::map<int, int64_t> dpc;
  for (int col : {kC2, kC3, kC4, kC5}) {
    Predicate pred({PredicateAtom::Int64(col, CmpOp::kLt, 200)});
    ASSERT_OK_AND_ASSIGN(ClusteringRatioResult r,
                         ComputeClusteringRatio(db_->disk(), *t_, pred));
    dpc[col] = r.actual_pages;
  }
  EXPECT_LT(dpc[kC2], dpc[kC3]);
  EXPECT_LT(dpc[kC3], dpc[kC4]);
  EXPECT_LT(dpc[kC4], dpc[kC5]);
}

TEST_F(SyntheticWorkloadTest, IndexesExistAndAreConsistent) {
  for (const char* name : {"T_c1", "T_c2", "T_c3", "T_c4", "T_c5"}) {
    Index* ix = db_->GetIndex(name);
    ASSERT_NE(ix, nullptr) << name;
    EXPECT_EQ(ix->tree()->entry_count(), t_->row_count()) << name;
    EXPECT_OK(ix->tree()->CheckInvariants());
  }
  EXPECT_TRUE(db_->GetIndex("T_c1")->is_clustered_key());
  EXPECT_FALSE(db_->GetIndex("T_c3")->is_clustered_key());
}

TEST(QueryGenTest, SingleTableQueriesCoverColumnsAndSelectivities) {
  Database db;
  SyntheticOptions opts;
  opts.num_rows = 10'000;
  opts.build_indexes = false;
  auto t = BuildSyntheticTable(&db, "T", opts);
  ASSERT_TRUE(t.ok());
  auto queries =
      GenerateSyntheticSingleTableQueries(*t, 25, 0.01, 0.10, 99);
  ASSERT_EQ(queries.size(), 100u);
  std::map<int, int> per_col;
  for (const auto& g : queries) {
    ++per_col[g.column];
    EXPECT_GE(g.target_selectivity, 0.01);
    EXPECT_LE(g.target_selectivity, 0.10);
    EXPECT_EQ(g.query.pred.size(), 1u);
    EXPECT_EQ(g.query.count_col, kPadding);
    EXPECT_NE(g.description.find("COUNT(padding)"), std::string::npos);
  }
  EXPECT_EQ(per_col.size(), 4u);
  for (const auto& [col, n] : per_col) EXPECT_EQ(n, 25);
}

TEST(QueryGenTest, JoinQueriesCycleColumns) {
  Database db;
  SyntheticOptions opts;
  opts.num_rows = 10'000;
  opts.build_indexes = false;
  auto t = BuildSyntheticTable(&db, "T", opts);
  auto t1 = BuildSyntheticTable(&db, "T1", opts);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t1.ok());
  auto queries = GenerateSyntheticJoinQueries(*t, *t1, 40, 0.005, 0.07, 7);
  ASSERT_EQ(queries.size(), 40u);
  std::set<int> cols;
  for (const auto& g : queries) {
    cols.insert(g.column);
    EXPECT_EQ(g.query.outer_table, *t1);
    EXPECT_EQ(g.query.inner_table, *t);
    EXPECT_EQ(g.query.outer_col, g.query.inner_col);
    EXPECT_EQ(g.query.outer_pred.size(), 1u);
  }
  EXPECT_EQ(cols.size(), 4u);
}

TEST(QueryGenTest, MultiPredicateQueriesStaySargableAndNonEmpty) {
  Database db;
  SyntheticOptions opts;
  opts.num_rows = 10'000;
  opts.build_indexes = false;
  auto t = BuildSyntheticTable(&db, "T", opts);
  ASSERT_TRUE(t.ok());
  for (int atoms = 1; atoms <= 8; ++atoms) {
    SingleTableQuery q = GenerateMultiPredicateQuery(*t, atoms, 0.5, 3);
    EXPECT_EQ(q.pred.size(), static_cast<size_t>(atoms));
    // Every atom must be index-sargable (a range on some Ci).
    std::set<int> touched;
    for (const PredicateAtom& a : q.pred.atoms()) {
      auto range = ExtractColumnRange(q.pred, a.col());
      ASSERT_TRUE(range.has_value());
      touched.insert(a.col());
    }
    // The conjunction must keep matching rows (bands never empty).
    EXPECT_GT(ExactCardinality(db.disk(), **t, q.pred), 0) << atoms;
    EXPECT_LE(touched.size(), 4u);
  }
}

TEST(QueryGenTest, RealWorldQueriesRespectSelectivityCap) {
  Database db;
  RealWorldOptions opts;
  opts.scale = 0.1;
  opts.build_indexes = false;
  auto datasets = BuildRealWorldDatabases(&db, opts);
  ASSERT_TRUE(datasets.ok());
  for (const DatasetInfo& info : *datasets) {
    auto queries = GenerateRealWorldQueries(db.disk(), info.table,
                                            info.predicate_cols, 4, 0.10,
                                            55);
    EXPECT_FALSE(queries.empty()) << info.name;
    for (const auto& g : queries) {
      EXPECT_LE(g.target_selectivity, 0.10) << g.description;
      EXPECT_GT(g.target_selectivity, 0.0);
      // Verify the recorded selectivity against a raw count.
      int64_t rows = ExactCardinality(db.disk(), *info.table, g.query.pred);
      EXPECT_NEAR(static_cast<double>(rows) / info.table->row_count(),
                  g.target_selectivity, 1e-9);
    }
  }
}

TEST(RealWorldTest, DatasetsSpanTheClusteringSpectrum) {
  Database db;
  RealWorldOptions opts;
  opts.scale = 0.25;
  opts.build_indexes = false;
  auto datasets = BuildRealWorldDatabases(&db, opts);
  ASSERT_TRUE(datasets.ok());
  ASSERT_EQ(datasets->size(), 4u);
  double min_cr = 1.0, max_cr = 0.0;
  for (const DatasetInfo& info : *datasets) {
    auto queries = GenerateRealWorldQueries(db.disk(), info.table,
                                            info.predicate_cols, 3, 0.10,
                                            77);
    for (const auto& g : queries) {
      ASSERT_OK_AND_ASSIGN(
          ClusteringRatioResult r,
          ComputeClusteringRatio(db.disk(), *info.table, g.query.pred));
      if (r.upper_bound > r.lower_bound) {
        min_cr = std::min(min_cr, r.ratio);
        max_cr = std::max(max_cr, r.ratio);
      }
    }
  }
  EXPECT_LT(min_cr, 0.3) << "some predicates must be well clustered";
  EXPECT_GT(max_cr, 0.7) << "some predicates must be scattered";
}

TEST(RealWorldTest, RowsPerPageShapesFollowTableOne) {
  Database db;
  RealWorldOptions opts;
  opts.scale = 0.05;
  opts.build_indexes = false;
  auto datasets = BuildRealWorldDatabases(&db, opts);
  ASSERT_TRUE(datasets.ok());
  std::map<std::string, uint32_t> rpp;
  for (const DatasetInfo& info : *datasets) {
    rpp[info.name] = info.table->rows_per_page();
  }
  // Table I shape: products is widest (9/page), book retailer ~27,
  // yellow pages ~39, voter ~46.
  EXPECT_LT(rpp["products"], rpp["book_retailer"]);
  EXPECT_LT(rpp["book_retailer"], rpp["yellow_pages"]);
  EXPECT_LT(rpp["yellow_pages"], rpp["voter"]);
}

TEST(TpchLikeTest, DatesFollowOrderKeys) {
  Database db;
  TpchLikeOptions opts;
  opts.lineitem_rows = 20'000;
  opts.build_indexes = false;
  auto tables = BuildTpchLike(&db, opts);
  ASSERT_TRUE(tables.ok());
  Table* li = tables->lineitem;
  EXPECT_EQ(li->row_count(), 20'000);
  EXPECT_GT(tables->orders->row_count(), 20'000 / 8);

  // shipdate must be strongly correlated with the clustering order:
  // clustering ratio of a shipdate range predicate is low.
  Predicate pred({PredicateAtom::Int64(kLShipDate, CmpOp::kLt, 150)});
  ASSERT_OK_AND_ASSIGN(ClusteringRatioResult r,
                       ComputeClusteringRatio(db.disk(), *li, pred));
  ASSERT_GT(r.qualifying_rows, 100);
  EXPECT_LT(r.ratio, 0.2);
}

TEST(TpchLikeTest, SuppKeyIsSkewed) {
  Database db;
  TpchLikeOptions opts;
  opts.lineitem_rows = 20'000;
  opts.build_indexes = false;
  auto tables = BuildTpchLike(&db, opts);
  ASSERT_TRUE(tables.ok());
  std::map<int64_t, int64_t> freq;
  tables->lineitem->file()->ForEachRawRow(
      db.disk(), [&](PageNo, uint16_t, const RowView& row) {
        ++freq[row.GetInt64(kLSuppKey)];
      });
  int64_t max_freq = 0, total = 0;
  for (auto& [v, c] : freq) {
    max_freq = std::max(max_freq, c);
    total += c;
  }
  EXPECT_GT(max_freq, total / 50) << "Z=1 head value should be heavy";
}

TEST(TpchLikeTest, IndexesBuiltWhenRequested) {
  Database db;
  TpchLikeOptions opts;
  opts.lineitem_rows = 5'000;
  auto tables = BuildTpchLike(&db, opts);
  ASSERT_TRUE(tables.ok());
  for (const char* name :
       {"lineitem_shipdate", "lineitem_commitdate", "lineitem_receiptdate",
        "lineitem_partkey", "lineitem_suppkey", "lineitem_orderkey"}) {
    ASSERT_NE(db.GetIndex(name), nullptr) << name;
    EXPECT_OK(db.GetIndex(name)->tree()->CheckInvariants());
  }
}

}  // namespace
}  // namespace dpcf
