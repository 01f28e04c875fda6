// Operator tests: every access method and join method verified against a
// brute-force reference executor over the same data, plus monitor-placement
// and accounting behaviour.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "exec/executor.h"
#include "exec/index_ops.h"
#include "exec/join_hash_table.h"
#include "exec/join_ops.h"
#include "exec/rel_ops.h"
#include "exec/scan_ops.h"
#include "tests/test_util.h"

// Every heap allocation this test binary makes is counted, so a test can
// assert how often an operator allocates. As in storage_test.cc, the
// aligned forms are left alone and the deletes stay out of line. The
// nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them): under ASan they would otherwise come from the sanitizer's
// runtime and not pair with the frees below.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dpcf {
namespace {

using dpcf::testing::MatchesRow;
using dpcf::testing::SyntheticDbTest;

class ExecOpsTest : public SyntheticDbTest {
 protected:
  // Brute-force reference: ids (C1 values) of rows satisfying pred.
  std::vector<int64_t> Reference(const Predicate& pred) {
    std::vector<int64_t> out;
    t_->file()->ForEachRawRow(
        db_->disk(), [&](PageNo, uint16_t, const RowView& row) {
          if (MatchesRow(pred, row)) out.push_back(row.GetInt64(kC1));
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

  // A tiny heap table (k, id): row i holds (keys[i], i), so rows that
  // share a join key stay distinguishable in join output.
  Table* MakeKeyTable(const char* name, const std::vector<int64_t>& keys) {
    Schema schema({Column::Int64("k"), Column::Int64("id")});
    auto t = db_->CreateTable(name, schema, TableOrganization::kHeap);
    EXPECT_TRUE(t.ok());
    TableBuilder b(*t);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_OK(b.AddRow(
          {Value::Int64(keys[i]), Value::Int64(static_cast<int64_t>(i))}));
    }
    EXPECT_OK(b.Finish());
    return *t;
  }

  // Every row of `t`, all columns, in scan order.
  std::vector<Tuple> RawRows(const Table& t) {
    std::vector<Tuple> out;
    t.file()->ForEachRawRow(db_->disk(),
                            [&](PageNo, uint16_t, const RowView& row) {
                              out.push_back(row.Materialize());
                            });
    return out;
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
  Table* lhs = MakeKeyTable("dupL", {1, 1, 2, 3});
  Table* rhs = MakeKeyTable("dupR", {1, 2, 2, 5});
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

TEST_F(ExecOpsTest, HashJoinDuplicateKeysMatchNestedLoop) {
  // The {1,1,2,3} x {1,2,2,5} tables above, as build and probe side. The
  // output order is part of the contract: probe order, then the build
  // side's insertion order within a key.
  Table* build = MakeKeyTable("hjBuild", {1, 1, 2, 3});
  Table* probe = MakeKeyTable("hjProbe", {1, 2, 2, 5});
  const std::vector<Tuple> build_rows = RawRows(*build);
  const std::vector<Tuple> probe_rows = RawRows(*probe);
  std::vector<Tuple> expected;
  for (const Tuple& p : probe_rows) {
    for (const Tuple& b : build_rows) {
      if (p[0].AsInt64() != b[0].AsInt64()) continue;
      Tuple row = p;
      row.insert(row.end(), b.begin(), b.end());
      expected.push_back(std::move(row));
    }
  }
  ASSERT_EQ(expected.size(), 4u);
  const auto build_n = static_cast<int64_t>(build_rows.size());
  const auto probe_n = static_cast<int64_t>(probe_rows.size());

  for (bool with_filter : {false, true}) {
    SCOPED_TRACE(with_filter ? "bitvector" : "no bitvector");
    ExecContext ctx(db_->buffer_pool());
    std::optional<BitvectorSpec> spec;
    if (with_filter) spec = BitvectorSpec{ctx.AllocateFilterSlot(), 1 << 10};
    HashJoinOp hash(
        std::make_unique<TableScanOp>(build, Predicate(),
                                      std::vector<int>{0, 1}),
        0,
        std::make_unique<TableScanOp>(probe, Predicate(),
                                      std::vector<int>{0, 1}),
        0, spec);
    // Re-opening the same operator must rebuild the same table.
    for (int run = 0; run < 2; ++run) {
      ASSERT_OK_AND_ASSIGN(RunResult result, ExecutePlan(&hash, &ctx));
      EXPECT_EQ(result.output, expected) << "run " << run;
      // One table op per build row and per probe row, hit or miss.
      EXPECT_EQ(result.stats.cpu.hash_table_ops, build_n + probe_n);
      EXPECT_EQ(result.stats.cpu.monitor_hash_ops, with_filter ? build_n : 0);
    }
  }
}

TEST_F(ExecOpsTest, HashJoinFillsOutputTupleInPlace) {
  {  // The counting operator new is the one linked in.
    const int64_t before = g_allocations.load();
    void* volatile probe = ::operator new(16);
    ::operator delete(probe);
    ASSERT_EQ(g_allocations.load(), before + 1);
  }
  // 100 build rows and 200 probe rows over keys 0..9: every probe row
  // matches 10 build rows, so the join emits 2,000 rows.
  std::vector<int64_t> build_keys(100);
  std::vector<int64_t> probe_keys(200);
  for (size_t i = 0; i < build_keys.size(); ++i) {
    build_keys[i] = static_cast<int64_t>(i % 10);
  }
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    probe_keys[i] = static_cast<int64_t>(i % 10);
  }
  Table* build = MakeKeyTable("allocBuild", build_keys);
  Table* probe = MakeKeyTable("allocProbe", probe_keys);
  HashJoinOp hash(std::make_unique<TableScanOp>(build, Predicate(),
                                                std::vector<int>{0, 1}),
                  0,
                  std::make_unique<TableScanOp>(probe, Predicate(),
                                                std::vector<int>{0, 1}),
                  0);
  ExecContext ctx(db_->buffer_pool());
  Tuple out;
  int64_t emitted = 0;
  const int64_t before = g_allocations.load();
  ASSERT_OK(hash.Open(&ctx));
  while (true) {
    ASSERT_OK_AND_ASSIGN(bool more, hash.Next(&ctx, &out));
    if (!more) break;
    ++emitted;
  }
  ASSERT_OK(hash.Close(&ctx));
  const int64_t allocations = g_allocations.load() - before;
  ASSERT_EQ(emitted, 2000);
  // Building holds every build row, so some allocation is expected; one
  // per emitted row is not.
  EXPECT_LT(allocations, emitted);
}

// ------------------------------------------------------------ JoinHashTable

// Checks `table` against a key -> row-indexes reference over `keys`, and
// that every key in `absent` (not in `keys`) finds nothing.
void ExpectMatchesReference(const JoinHashTable& table,
                            const std::vector<int64_t>& keys,
                            const std::vector<int64_t>& absent) {
  std::map<int64_t, std::vector<uint32_t>> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    ref[keys[i]].push_back(static_cast<uint32_t>(i));
  }
  for (const auto& [key, rows] : ref) {
    EXPECT_TRUE(table.MayContain(key)) << "key filter rejects key " << key;
    std::span<const uint32_t> found = table.Find(key);
    EXPECT_EQ(std::vector<uint32_t>(found.begin(), found.end()), rows)
        << "key " << key;
  }
  for (int64_t key : absent) {
    ASSERT_EQ(ref.count(key), 0u) << "key " << key;
    EXPECT_TRUE(table.Find(key).empty()) << "key " << key;
  }
  EXPECT_TRUE(std::has_single_bit(table.slot_count()));
  EXPECT_GE(table.slot_count(), 2 * keys.size());
}

TEST(JoinHashTableTest, MatchesOrderedMapReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(2024);
  // 63, 64 and 65 rows straddle a doubling of the slot count (and of the
  // key filter); 28,000 is Fig 8's largest build side.
  for (size_t n : {0, 1, 17, 63, 64, 65, 5000, 28'000}) {
    // A 50-value domain (heavy duplication), then the full int64 range
    // with its edge values mixed in.
    for (bool full_range : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << (full_range ? " full" : " dup"));
      std::vector<int64_t> keys(n);
      for (int64_t& k : keys) {
        k = full_range ? static_cast<int64_t>(rng.Next())
                       : rng.NextInt(0, 49);
      }
      const std::vector<int64_t> edges = {kMin, kMax, 0, -1};
      if (full_range) {
        for (size_t i = 0; i < n; i += 3) keys[i] = edges[i % edges.size()];
      }
      // Misses: the edge values and random keys, wherever not inserted.
      std::vector<int64_t> candidates = {kMin, kMax, 0, -1, 50, -50};
      for (int i = 0; i < 64; ++i) {
        candidates.push_back(static_cast<int64_t>(rng.Next()));
      }
      std::vector<int64_t> absent;
      for (int64_t k : candidates) {
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          absent.push_back(k);
        }
      }
      JoinHashTable table;
      ASSERT_OK(table.Build(keys));
      ExpectMatchesReference(table, keys, absent);
    }
  }
}

TEST(JoinHashTableTest, ProbeRunWrapsPastLastSlot) {
  // Keys whose Mix64 home is the last slot fill it and wrap to slots
  // 0, 1, ...: every key, and a miss homed there, must walk the wrap.
  constexpr size_t kRows = 8;
  JoinHashTable sizing;
  ASSERT_OK(sizing.Build(std::vector<int64_t>(kRows)));
  const size_t slots = sizing.slot_count();
  const size_t last = slots - 1;
  std::vector<int64_t> homed_last;
  for (int64_t k = 0; homed_last.size() < 6; ++k) {
    if ((Mix64(static_cast<uint64_t>(k)) & last) == last) {
      homed_last.push_back(k);
    }
  }
  // Five distinct keys, three repeated: the runs wrap and carry
  // duplicates; homed_last[5] is the miss.
  const std::vector<int64_t> keys = {homed_last[0], homed_last[1],
                                     homed_last[2], homed_last[0],
                                     homed_last[3], homed_last[4],
                                     homed_last[2], homed_last[4]};
  ASSERT_EQ(keys.size(), kRows);
  JoinHashTable table;
  ASSERT_OK(table.Build(keys));
  ASSERT_EQ(table.slot_count(), slots);
  ExpectMatchesReference(table, keys, {homed_last[5]});
}

TEST(JoinHashTableTest, RebuildKeepsNoFilterBitFromThePreviousBuild) {
  // Two builds of the same size reuse the same filter array; the second
  // must answer exactly like a fresh table built from its keys alone.
  Rng rng(5);
  std::vector<int64_t> old_keys(5000);
  for (int64_t& k : old_keys) k = static_cast<int64_t>(rng.Next());
  std::vector<int64_t> new_keys(old_keys.size());
  for (size_t i = 0; i < new_keys.size(); ++i) {
    new_keys[i] = static_cast<int64_t>(i) * 7 + 1'000'003;
  }
  JoinHashTable rebuilt;
  ASSERT_OK(rebuilt.Build(old_keys));
  const size_t slots = rebuilt.slot_count();
  ASSERT_OK(rebuilt.Build(new_keys));
  ASSERT_EQ(rebuilt.slot_count(), slots);
  JoinHashTable fresh;
  ASSERT_OK(fresh.Build(new_keys));
  size_t passes = 0;
  for (int64_t key : old_keys) {
    ASSERT_EQ(std::count(new_keys.begin(), new_keys.end(), key), 0);
    EXPECT_EQ(rebuilt.MayContain(key), fresh.MayContain(key)) << key;
    EXPECT_TRUE(rebuilt.Find(key).empty()) << key;
    passes += rebuilt.MayContain(key);
  }
  EXPECT_LT(passes, old_keys.size() / 10);
  // An empty rebuild rejects every old key.
  ASSERT_OK(rebuilt.Build({}));
  for (int64_t key : old_keys) ASSERT_FALSE(rebuilt.MayContain(key)) << key;
}

TEST(JoinHashTableTest, KeyFilterFalsePositivesStayUnderEightPercent) {
  // Fig 8's largest build side is about 28k keys; its probe side is
  // T's 400k rows, nearly all of them misses. 65,536 slots give the filter
  // 18.7 bits per key, so about 5% of absent keys should pass.
  Rng rng(8);
  std::vector<int64_t> keys(28'000);
  for (int64_t& k : keys) k = static_cast<int64_t>(rng.Next());
  JoinHashTable table;
  ASSERT_OK(table.Build(keys));
  ASSERT_EQ(table.slot_count(), 65'536u);
  std::vector<int64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  constexpr int kAbsent = 400'000;
  int probed = 0;
  int passed = 0;
  while (probed < kAbsent) {
    const auto key = static_cast<int64_t>(rng.Next());
    if (std::binary_search(sorted.begin(), sorted.end(), key)) continue;
    ++probed;
    passed += table.MayContain(key);
  }
  EXPECT_LT(passed, kAbsent * 8 / 100);
}

}  // namespace
}  // namespace dpcf
