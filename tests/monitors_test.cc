// Tests for the paper's monitoring primitives: linear counting (Fig 3),
// bitvector filters (Fig 5), grouped page counting, and the DPSample scan
// bundle (Fig 4).

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bitvector_filter.h"
#include "core/dpsample.h"
#include "core/grouped_page_counter.h"
#include "core/linear_counter.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

// ---------------------------------------------------------------- Linear

class LinearCounterAccuracy
    : public ::testing::TestWithParam<std::tuple<int64_t, uint32_t>> {};

TEST_P(LinearCounterAccuracy, EstimateWithinTolerance) {
  const auto [distinct, numbits] = GetParam();
  LinearCounter counter(numbits, /*seed=*/123);
  Rng rng(77);
  // Feed each distinct value several times (duplicates must not matter).
  for (int64_t v = 0; v < distinct; ++v) {
    uint64_t packed = static_cast<uint64_t>(v) * 1315423911ULL;
    counter.Add(packed);
    if (v % 3 == 0) counter.Add(packed);
  }
  double est = counter.Estimate();
  // Whang et al.: standard error ~ sqrt(numbits*(exp(t)-t-1))/n with
  // t = n/numbits; allow 5 sigma-ish via a generous 10% + small-absolute
  // tolerance band.
  double tol = std::max(10.0, 0.1 * static_cast<double>(distinct));
  EXPECT_NEAR(est, static_cast<double>(distinct), tol)
      << "distinct=" << distinct << " bits=" << numbits;
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(
    LoadFactors, LinearCounterAccuracy,
    ::testing::Values(std::make_tuple(int64_t{100}, 1024u),
                      std::make_tuple(int64_t{1000}, 1024u),
                      std::make_tuple(int64_t{2000}, 1024u),
                      std::make_tuple(int64_t{5000}, 4096u),
                      std::make_tuple(int64_t{20000}, 16384u),
                      std::make_tuple(int64_t{50000}, 16384u)));

TEST(LinearCounterTest, EmptyEstimatesZero) {
  LinearCounter c(1024);
  EXPECT_EQ(c.Estimate(), 0.0);
  EXPECT_EQ(c.BitsSet(), 0u);
  EXPECT_FALSE(c.saturated());
}

TEST(LinearCounterTest, DuplicatesDoNotInflate) {
  LinearCounter c(1024);
  for (int i = 0; i < 100'000; ++i) c.Add(42);
  EXPECT_EQ(c.BitsSet(), 1u);
  EXPECT_NEAR(c.Estimate(), 1.0, 0.01);
}

TEST(LinearCounterTest, SaturationIsDetectedAndBounded) {
  LinearCounter c(64);
  for (uint64_t v = 0; v < 100'000; ++v) c.Add(v);
  EXPECT_TRUE(c.saturated());
  EXPECT_GT(c.Estimate(), 64.0) << "saturated estimate is a lower bound";
  EXPECT_TRUE(std::isfinite(c.Estimate()));
}

TEST(LinearCounterTest, ResetClears) {
  LinearCounter c(1024);
  c.Add(1);
  c.Add(2);
  c.Reset();
  EXPECT_EQ(c.BitsSet(), 0u);
}

TEST(LinearCounterTest, BitsRoundedUpToWord) {
  LinearCounter c(100);
  EXPECT_EQ(c.numbits(), 128u);
  EXPECT_EQ(c.MemoryBytes(), 16u);
  LinearCounter tiny(1);
  EXPECT_EQ(tiny.numbits(), 64u);
}

// -------------------------------------------------------------- Bitvector

TEST(BitvectorFilterTest, DirectModeIsExactWhenDomainFits) {
  BitvectorFilter f(1 << 12);
  for (int64_t k = 0; k < 2000; k += 2) f.AddKeyCounted(k);
  EXPECT_EQ(f.keys_added(), 1000);
  for (int64_t k = 0; k < 2000; ++k) {
    EXPECT_EQ(f.MayContain(k), k % 2 == 0) << k;
  }
  for (int64_t k = 2000; k < 4096; ++k) {
    EXPECT_FALSE(f.MayContain(k)) << "no false positives in-domain";
  }
}

TEST(BitvectorFilterTest, FoldingNeverProducesFalseNegatives) {
  // Fewer bits than the domain: collisions may overestimate but an added
  // key must always be found (the paper's one-sided error guarantee).
  BitvectorFilter f(256);
  std::set<int64_t> keys;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) keys.insert(rng.NextInt(0, 100'000));
  for (int64_t k : keys) f.AddKey(k);
  for (int64_t k : keys) {
    EXPECT_TRUE(f.MayContain(k));
  }
}

TEST(BitvectorFilterTest, ResetClearsBitsAndCount) {
  BitvectorFilter f(128);
  f.AddKeyCounted(7);
  f.Reset();
  EXPECT_EQ(f.BitsSet(), 0u);
  EXPECT_EQ(f.keys_added(), 0);
  EXPECT_FALSE(f.MayContain(7));
}

// ------------------------------------------------------------- GroupedPC

TEST(GroupedPageCounterTest, CountsPagesWithAtLeastOneHit) {
  GroupedPageCounter c;
  // Page 1: 2 hits, page 2: none, page 3: 1 hit.
  c.BeginPage();
  c.OnRowSatisfies();
  c.OnRowSatisfies();
  c.EndPage();
  c.BeginPage();
  c.EndPage();
  c.BeginPage();
  c.OnRowSatisfies();
  c.EndPage();
  EXPECT_EQ(c.pages_satisfying(), 2);
  EXPECT_EQ(c.rows_satisfying(), 3);
  EXPECT_EQ(c.pages_seen(), 3);
  c.Reset();
  EXPECT_EQ(c.pages_satisfying(), 0);
}

// --------------------------------------------------------------- Bundle

class BundleTest : public ::testing::Test {
 protected:
  BundleTest()
      : schema_({Column::Int64("a"), Column::Int64("b")}),
        codec_(&schema_) {}

  // Synthesizes `pages` pages of `rows_per_page` rows; row (p, r) gets
  // a = global index, b = global index % modulo.
  void Drive(ScanMonitorBundle* bundle, const Predicate& pushed, int pages,
             int rows_per_page, int modulo, CpuStats* cpu) {
    std::vector<const BitvectorFilter*> no_filters;
    int64_t g = 0;
    for (int p = 0; p < pages; ++p) {
      bundle->BeginPage(cpu, static_cast<PageNo>(p));
      for (int r = 0; r < rows_per_page; ++r, ++g) {
        std::vector<char> buf(schema_.row_size());
        ASSERT_OK(codec_.Encode(
            {Value::Int64(g), Value::Int64(g % modulo)}, buf.data()));
        RowView row(buf.data(), &schema_);
        uint32_t leading = pushed.EvalLeading(row, cpu);
        bundle->OnRow(row, leading, cpu, no_filters);
      }
      bundle->EndPage();
    }
  }

  Schema schema_;
  RowCodec codec_;
};

TEST_F(BundleTest, PrefixRequestIsExactAndFree) {
  Predicate pushed({PredicateAtom::Int64(0, CmpOp::kLt, 35)});
  ScanMonitorBundle bundle(pushed, &schema_, /*f=*/0.5, /*seed=*/1);
  ScanExprRequest req;
  req.label = "prefix";
  req.expr = pushed;
  ASSERT_OK(bundle.AddRequest(req));

  CpuStats cpu;
  Drive(&bundle, pushed, /*pages=*/10, /*rows=*/10, /*modulo=*/7, &cpu);
  auto results = bundle.Finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].mode, ScanMonitorMode::kPrefixExact);
  // a < 35: rows 0..34 live on pages 0..3 => DPC 4, card 35. Exact.
  EXPECT_EQ(results[0].dpc, 4);
  EXPECT_EQ(results[0].cardinality, 35);
  EXPECT_EQ(results[0].pages_seen, 10);
  // The scan itself charged 100 atom evals; the monitor none extra.
  EXPECT_EQ(cpu.predicate_atom_evals, 100);
}

TEST_F(BundleTest, FullFractionNonPrefixIsExactButCharged) {
  Predicate pushed({PredicateAtom::Int64(0, CmpOp::kLt, 35)});
  ScanMonitorBundle bundle(pushed, &schema_, /*f=*/1.0, /*seed=*/1);
  ScanExprRequest req;
  req.label = "nonprefix";
  req.expr = Predicate({PredicateAtom::Int64(1, CmpOp::kEq, 3)});
  ASSERT_OK(bundle.AddRequest(req));

  CpuStats cpu;
  Drive(&bundle, pushed, 10, 10, /*modulo=*/7, &cpu);
  auto results = bundle.Finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].mode, ScanMonitorMode::kFullExact);
  // b = g%7 == 3 hits every page of 10 rows (7-cycle covers each page...
  // page p covers g in [10p, 10p+10): contains a multiple ≡3 mod 7 for all
  // pages except where the cycle misses; verify against brute force.
  int64_t expect_pages = 0, expect_rows = 0;
  for (int p = 0; p < 10; ++p) {
    bool hit = false;
    for (int g = 10 * p; g < 10 * p + 10; ++g) {
      if (g % 7 == 3) {
        ++expect_rows;
        hit = true;
      }
    }
    expect_pages += hit;
  }
  EXPECT_EQ(results[0].dpc, static_cast<double>(expect_pages));
  EXPECT_EQ(results[0].cardinality, static_cast<double>(expect_rows));
  // Monitoring charged one extra (non-short-circuited) atom per row.
  EXPECT_EQ(cpu.predicate_atom_evals, 100 + 100);
}

TEST_F(BundleTest, SampledEstimateIsCloseOnAverage) {
  // Unbiasedness check: average the DPSample estimate across many seeds.
  Predicate pushed;  // unconditioned scan
  const int pages = 200, rows = 10;
  // b == 1 hits exactly the pages containing g ≡ 1 mod 13.
  int64_t truth_pages = 0;
  for (int p = 0; p < pages; ++p) {
    bool hit = false;
    for (int g = rows * p; g < rows * (p + 1); ++g) hit |= (g % 13 == 1);
    truth_pages += hit;
  }
  double sum = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    ScanMonitorBundle bundle(pushed, &schema_, /*f=*/0.3,
                             /*seed=*/1000 + trial);
    ScanExprRequest req;
    req.label = "sampled";
    req.expr = Predicate({PredicateAtom::Int64(1, CmpOp::kEq, 1)});
    ASSERT_OK(bundle.AddRequest(req));
    CpuStats cpu;
    Drive(&bundle, pushed, pages, rows, /*modulo=*/13, &cpu);
    auto results = bundle.Finish();
    EXPECT_EQ(results[0].mode, ScanMonitorMode::kSampled);
    sum += results[0].dpc;
  }
  double mean = sum / kTrials;
  EXPECT_NEAR(mean, static_cast<double>(truth_pages),
              0.15 * static_cast<double>(truth_pages));
}

TEST_F(BundleTest, SamplingChargesOnlySampledPages) {
  Predicate pushed({PredicateAtom::Int64(0, CmpOp::kGe, 0)});
  ScanMonitorBundle bundle(pushed, &schema_, /*f=*/0.2, /*seed=*/3);
  ScanExprRequest req;
  req.label = "x";
  req.expr = Predicate({PredicateAtom::Int64(1, CmpOp::kEq, 0)});
  ASSERT_OK(bundle.AddRequest(req));
  CpuStats cpu;
  Drive(&bundle, pushed, 100, 10, 7, &cpu);
  auto results = bundle.Finish();
  // Scan charges 1000 atom evals; monitor charges 10 per *sampled* page.
  int64_t monitor_evals = cpu.predicate_atom_evals - 1000;
  EXPECT_EQ(monitor_evals, results[0].pages_sampled * 10);
  EXPECT_LT(results[0].pages_sampled, 45) << "~20 of 100 expected";
  EXPECT_GT(results[0].pages_sampled, 5);
}

TEST_F(BundleTest, BitvectorRequestRequiresColumn) {
  Predicate pushed;
  ScanMonitorBundle bundle(pushed, &schema_, 1.0, 1);
  ScanExprRequest bad;
  bad.label = "bv";
  bad.bitvector_slot = 0;
  bad.bv_col = -1;
  EXPECT_FALSE(bundle.AddRequest(bad).ok());
}

TEST_F(BundleTest, BitvectorRequestProbesRegisteredFilter) {
  Predicate pushed;
  ScanMonitorBundle bundle(pushed, &schema_, 1.0, 1);
  ScanExprRequest req;
  req.label = "bv";
  req.bitvector_slot = 0;
  req.bv_col = 1;  // column b
  ASSERT_OK(bundle.AddRequest(req));

  BitvectorFilter filter(1 << 10);
  filter.AddKey(3);  // only b == 3 "joins"
  std::vector<const BitvectorFilter*> slots{&filter};

  CpuStats cpu;
  int64_t g = 0;
  int64_t expect_pages = 0;
  for (int p = 0; p < 20; ++p) {
    bundle.BeginPage(&cpu, static_cast<PageNo>(p));
    bool hit = false;
    for (int r = 0; r < 10; ++r, ++g) {
      std::vector<char> buf(schema_.row_size());
      ASSERT_OK(codec_.Encode(
          {Value::Int64(g), Value::Int64(g % 7)}, buf.data()));
      RowView row(buf.data(), &schema_);
      bundle.OnRow(row, 0, &cpu, slots);
      hit |= (g % 7 == 3);
    }
    bundle.EndPage();
    expect_pages += hit;
  }
  auto results = bundle.Finish();
  EXPECT_EQ(results[0].dpc, static_cast<double>(expect_pages));
  EXPECT_GT(cpu.monitor_hash_ops, 0);
  EXPECT_NE(results[0].expr_text.find("bitvector(b)"), std::string::npos);
}

TEST_F(BundleTest, MissingFilterCountsNothing) {
  Predicate pushed;
  ScanMonitorBundle bundle(pushed, &schema_, 1.0, 1);
  ScanExprRequest req;
  req.label = "bv";
  req.bitvector_slot = 0;
  req.bv_col = 1;
  ASSERT_OK(bundle.AddRequest(req));
  std::vector<const BitvectorFilter*> slots{nullptr};  // never registered
  CpuStats cpu;
  bundle.BeginPage(&cpu, 0);
  std::vector<char> buf(schema_.row_size());
  ASSERT_OK(codec_.Encode({Value::Int64(0), Value::Int64(0)}, buf.data()));
  bundle.OnRow(RowView(buf.data(), &schema_), 0, &cpu, slots);
  bundle.EndPage();
  EXPECT_EQ(bundle.Finish()[0].dpc, 0.0);
}

}  // namespace
}  // namespace dpcf
