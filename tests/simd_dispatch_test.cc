// Property sweep for the SIMD dispatch layer (DESIGN.md section 16): every
// available ISA — scalar always, AVX2 when the build + CPU has it —
// must be indistinguishable bit for bit from the scalar oracle:
//
//  * kernel level: EvalBatch selection vectors, leading[] counts,
//    EvalBatchDense pass bitmaps, and predicate_atom_evals charges;
//  * scan level: monitored TableScanOp feedback (prefix-exact, sampled
//    DPSample draws, bitvector) under each ISA vs the row-wise oracle;
//  * clustered level: TableScanOp over a ClusteredRange, the page step's
//    batch evaluator under each ISA vs its row-at-a-time oracle, including
//    the sorted-key early-exit boundary (range ends mid-page / at a page
//    edge / past the table) and empty ranges;
//  * leaf runs: BtreeIterator::NextRun vs per-entry Next().

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dpsample.h"
#include "exec/executor.h"
#include "exec/index_ops.h"
#include "exec/predicate_kernel.h"
#include "exec/scan_ops.h"
#include "exec/simd.h"
#include "index/btree.h"
#include "obs/metrics_registry.h"
#include "table/heap_file.h"
#include "table/row_codec.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::ScopedSimd;
using testing::SyntheticDbTest;

Predicate RandomIntConjunction(Rng* rng, int64_t n, int max_atoms) {
  Predicate pred;
  const int atoms = 1 + static_cast<int>(rng->NextBounded(
                            static_cast<uint64_t>(max_atoms)));
  const int cols[] = {kC1, kC2, kC3, kC4, kC5};
  for (int a = 0; a < atoms; ++a) {
    CmpOp op = static_cast<CmpOp>(rng->NextBounded(6));
    int col = cols[rng->NextBounded(5)];
    int64_t v = rng->NextInt(1, n);
    if (op == CmpOp::kLt || op == CmpOp::kLe) v = std::max<int64_t>(v, n / 8);
    if (op == CmpOp::kGt || op == CmpOp::kGe) {
      v = std::min<int64_t>(v, 7 * n / 8);
    }
    pred.Add(PredicateAtom::Int64(col, op, v));
  }
  return pred;
}

TEST(SimdDispatch, NamesRoundTrip) {
  EXPECT_STREQ(SimdIsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kAvx2), "avx2");
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndListedFirst) {
  EXPECT_TRUE(SimdIsaAvailable(SimdIsa::kScalar));
  const std::vector<SimdIsa> isas = AvailableSimdIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas[0], SimdIsa::kScalar);
  for (SimdIsa isa : isas) EXPECT_TRUE(SimdIsaAvailable(isa));
  // The rejection path: a value that names no ISA is refused on every
  // build, and so is AVX2 where it is compiled out or the CPU lacks it
  // (the no-AVX2 CI leg).
  const SimdIsa unknown = static_cast<SimdIsa>(0xff);
  EXPECT_FALSE(SimdIsaAvailable(unknown));
  EXPECT_FALSE(SetActiveSimd(unknown).ok());
  if (!SimdIsaAvailable(SimdIsa::kAvx2)) {
    EXPECT_FALSE(SetActiveSimd(SimdIsa::kAvx2).ok());
  }
}

TEST(SimdDispatch, EnvResolutionPolicy) {
  const SimdIsa best = ChooseSimdIsa(nullptr);
  EXPECT_TRUE(SimdIsaAvailable(best));
  EXPECT_EQ(ChooseSimdIsa(""), best);          // unset/empty -> autodetect
  EXPECT_EQ(ChooseSimdIsa("scalar"), SimdIsa::kScalar);
  EXPECT_EQ(ChooseSimdIsa("bogus-isa"), best); // unrecognized -> autodetect
  EXPECT_EQ(ChooseSimdIsa("neon"), best);      // not an ISA -> autodetect
  // A recognized-but-unavailable ISA degrades to scalar, not to best.
  if (!SimdIsaAvailable(SimdIsa::kAvx2)) {
    EXPECT_EQ(ChooseSimdIsa("avx2"), SimdIsa::kScalar);
  }
  if (SimdIsaAvailable(SimdIsa::kAvx2)) {
    EXPECT_EQ(ChooseSimdIsa("avx2"), SimdIsa::kAvx2);
  }
}

TEST(SimdDispatch, SetActiveSimdGovernsNewKernels) {
  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimd pin(isa);
    EXPECT_EQ(ActiveSimdIsa(), isa);
    Schema schema({Column::Int64("a")});
    PredicateKernel kernel(
        Predicate({PredicateAtom::Int64(0, CmpOp::kGt, 0)}), &schema);
    EXPECT_EQ(kernel.simd_isa(), isa);
  }
}

// ------------------------------------------------ kernel-level ISA sweep

class SimdKernelSweep : public SyntheticDbTest,
                        public ::testing::WithParamInterface<int> {
 protected:
  // Evaluates `pred` over every page under `isa` and checks selection
  // vector, leading[], dense pass bits and charges against the serial
  // row-at-a-time oracle (which is ISA-independent by construction).
  void CheckIsaAgainstOracle(SimdIsa isa, const Predicate& pred) {
    ScopedSimd pin(isa);
    const Schema* schema = &t_->schema();
    const HeapFile* file = t_->file();
    PredicateKernel kernel(pred, schema);
    ASSERT_EQ(kernel.simd_isa(), isa);
    RowBlock block(schema);
    std::vector<uint32_t> sel, leading;
    std::vector<uint8_t> pass;
    CpuStats batch_cpu, serial_cpu;

    for (PageNo p = 0; p < file->page_count(); ++p) {
      const char* page = db_->disk()->RawPage(PageId{file->segment(), p});
      const uint32_t n = HeapFile::PageRowCount(page);
      block.Reset(HeapFile::PageRows(page), n);
      sel.resize(n);
      leading.resize(n);
      const uint32_t m =
          kernel.EvalBatch(&block, &batch_cpu, sel.data(), leading.data());

      uint32_t expect_m = 0;
      for (uint32_t s = 0; s < n; ++s) {
        RowView row(file->RowInPage(page, static_cast<uint16_t>(s)), schema);
        const uint32_t lead = pred.EvalLeading(row, &serial_cpu);
        ASSERT_EQ(leading[s], lead)
            << SimdIsaName(isa) << " page " << p << " row " << s << ": "
            << pred.ToString(*schema);
        if (lead == pred.atoms().size()) {
          ASSERT_LT(expect_m, m);
          ASSERT_EQ(sel[expect_m], s) << SimdIsaName(isa);
          ++expect_m;
        }
      }
      ASSERT_EQ(m, expect_m) << SimdIsaName(isa);

      pass.resize(n);
      CpuStats dense_cpu;
      kernel.EvalBatchDense(&block, &dense_cpu, pass.data());
      for (uint32_t s = 0; s < n; ++s) {
        RowView row(file->RowInPage(page, static_cast<uint16_t>(s)), schema);
        CpuStats scratch;
        ASSERT_EQ(pass[s] != 0, pred.EvalNoShortCircuit(row, &scratch))
            << SimdIsaName(isa) << " page " << p << " row " << s;
      }
    }
    EXPECT_EQ(batch_cpu.predicate_atom_evals, serial_cpu.predicate_atom_evals)
        << SimdIsaName(isa) << ": " << pred.ToString(*schema);
  }
};

TEST_P(SimdKernelSweep, EveryIsaMatchesTheRowOracleBitForBit) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 70901 + 13);
  for (int round = 0; round < 3; ++round) {
    const Predicate pred = RandomIntConjunction(&rng, t_->row_count(), 4);
    for (SimdIsa isa : AvailableSimdIsas()) {
      CheckIsaAgainstOracle(isa, pred);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdKernelSweep, ::testing::Range(0, 6));

// The run-cutoff primitive against a straightforward scalar scan, on the
// clustered table's key column (physically sorted) with boundary bounds.
TEST_F(SimdKernelSweep, LeadingLeCutoffMatchesScalarScan) {
  const Schema* schema = &t_->schema();
  const HeapFile* file = t_->file();
  const size_t key_off = schema->offset(static_cast<size_t>(kC1));
  const uint32_t stride = static_cast<uint32_t>(schema->row_size());
  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimd pin(isa);
    const SimdOps& ops = ActiveSimdOps();
    for (PageNo p = 0; p < file->page_count(); p += 7) {
      const char* page = db_->disk()->RawPage(PageId{file->segment(), p});
      const uint32_t n = HeapFile::PageRowCount(page);
      const char* rows = HeapFile::PageRows(page);
      auto key_at = [&](uint32_t r) {
        RowView row(file->RowInPage(page, static_cast<uint16_t>(r)), schema);
        return row.GetInt64(static_cast<size_t>(kC1));
      };
      const int64_t first = n > 0 ? key_at(0) : 0;
      const int64_t last = n > 0 ? key_at(n - 1) : 0;
      for (int64_t bound : {first - 1, first, first + n / 2, last - 1, last,
                            last + 5}) {
        const uint32_t cut =
            ops.int64_leading_le(rows, stride, key_off, bound, n);
        uint32_t expect = 0;
        while (expect < n && key_at(expect) <= bound) ++expect;
        ASSERT_EQ(cut, expect)
            << SimdIsaName(isa) << " page " << p << " bound " << bound;
      }
      // Empty run: n = 0 must not touch the rows.
      ASSERT_EQ(ops.int64_leading_le(rows, stride, key_off, 0, 0), 0u);
    }
  }
}

// ---------------------------------------------- scan-level monitored sweep

// Asserts two monitored runs are indistinguishable: tuples, CpuStats
// charges, logical I/O, simulated time, and every MonitorRecord (labels,
// mechanisms, DPC feedback — which folds in the DPSample draws).
void ExpectRunsIdentical(const RunResult& a, const RunResult& b,
                         const char* what) {
  ASSERT_EQ(a.output.size(), b.output.size()) << what;
  for (size_t i = 0; i < a.output.size(); ++i) {
    ASSERT_EQ(a.output[i], b.output[i]) << what << " tuple " << i;
  }
  EXPECT_EQ(a.stats.cpu.rows_processed, b.stats.cpu.rows_processed) << what;
  EXPECT_EQ(a.stats.cpu.predicate_atom_evals,
            b.stats.cpu.predicate_atom_evals)
      << what;
  EXPECT_EQ(a.stats.cpu.monitor_row_ops, b.stats.cpu.monitor_row_ops)
      << what;
  EXPECT_EQ(a.stats.cpu.monitor_hash_ops, b.stats.cpu.monitor_hash_ops)
      << what;
  EXPECT_EQ(static_cast<int64_t>(a.stats.io.logical_reads),
            static_cast<int64_t>(b.stats.io.logical_reads))
      << what;
  EXPECT_EQ(a.stats.simulated_ms, b.stats.simulated_ms) << what;
  ASSERT_EQ(a.stats.monitors.size(), b.stats.monitors.size()) << what;
  for (size_t i = 0; i < a.stats.monitors.size(); ++i) {
    const MonitorRecord& x = a.stats.monitors[i];
    const MonitorRecord& y = b.stats.monitors[i];
    EXPECT_EQ(x.label, y.label) << what;
    EXPECT_EQ(x.mechanism, y.mechanism) << what;
    EXPECT_EQ(x.actual_dpc, y.actual_dpc) << what << " " << x.label;
    EXPECT_EQ(x.actual_cardinality, y.actual_cardinality)
        << what << " " << x.label;
    EXPECT_EQ(x.exact, y.exact) << what << " " << x.label;
  }
}

class SimdScanSweep : public SyntheticDbTest,
                      public ::testing::WithParamInterface<int> {
 protected:
  std::unique_ptr<ScanMonitorBundle> MakeBundle(const Predicate& pushed,
                                                const Predicate& requested,
                                                uint64_t seed) {
    auto bundle = std::make_unique<ScanMonitorBundle>(
        pushed, &t_->schema(), /*f=*/0.5, seed);
    if (!pushed.atoms().empty()) {
      ScanExprRequest prefix;
      prefix.label = "prefix";
      prefix.expr = Predicate({pushed.atoms()[0]});
      EXPECT_TRUE(bundle->AddRequest(std::move(prefix)).ok());
    }
    ScanExprRequest sampled;
    sampled.label = "sampled";
    sampled.expr = requested;
    EXPECT_TRUE(bundle->AddRequest(std::move(sampled)).ok());
    return bundle;
  }

  RunResult RunTableScan(const Predicate& pushed, const Predicate& requested,
                         uint64_t seed, bool vectorized) {
    EXPECT_TRUE(db_->ColdCache().ok());
    ExecContext ctx(db_->buffer_pool());
    TableScanOp scan(t_, pushed, {kC1, kC5},
                     MakeBundle(pushed, requested, seed), vectorized);
    auto run = ExecutePlan(&scan, &ctx);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(*run);
  }
};

TEST_P(SimdScanSweep, MonitoredScanFeedbackIdenticalAcrossIsas) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);
  const Predicate pushed = RandomIntConjunction(&rng, t_->row_count(), 3);
  const Predicate requested = RandomIntConjunction(&rng, t_->row_count(), 2);
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 211;

  // Oracle: row-at-a-time, which never touches the dispatch table's
  // filter entries. Then every ISA's vectorized run must match it —
  // including the DPSample draws folded into the sampled monitor.
  RunResult oracle =
      RunTableScan(pushed, requested, seed, /*vectorized=*/false);
  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimd pin(isa);
    RunResult vec = RunTableScan(pushed, requested, seed, /*vectorized=*/true);
    ExpectRunsIdentical(vec, oracle, SimdIsaName(isa));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdScanSweep, ::testing::Range(0, 6));

// ------------------------------------- clustered range scan batch vs row

class ClusteredBatchSweep : public SyntheticDbTest {
 protected:
  std::unique_ptr<ScanMonitorBundle> MakeBundle(const Predicate& pushed,
                                                uint64_t seed) {
    auto bundle = std::make_unique<ScanMonitorBundle>(
        pushed, &t_->schema(), /*f=*/0.5, seed);
    ScanExprRequest prefix;
    prefix.label = "prefix";
    prefix.expr = Predicate({pushed.atoms()[0]});
    EXPECT_TRUE(bundle->AddRequest(std::move(prefix)).ok());
    ScanExprRequest sampled;
    sampled.label = "sampled";
    sampled.expr = pushed;
    EXPECT_TRUE(bundle->AddRequest(std::move(sampled)).ok());
    return bundle;
  }

  RunResult RunClustered(int64_t lo, int64_t hi, const Predicate& extra,
                         uint64_t seed, bool vectorized) {
    EXPECT_TRUE(db_->ColdCache().ok());
    ExecContext ctx(db_->buffer_pool());
    Predicate pushed;
    pushed.Add(PredicateAtom::Int64(kC1, CmpOp::kGe, lo));
    pushed.Add(PredicateAtom::Int64(kC1, CmpOp::kLe, hi));
    for (const PredicateAtom& a : extra.atoms()) pushed.Add(a);
    TableScanOp scan(t_, pushed, {kC1, kC3}, MakeBundle(pushed, seed),
                     vectorized, ClusteredRange{db_->GetIndex("T_c1"), lo, hi});
    EXPECT_EQ(scan.vectorized(), vectorized);
    auto run = ExecutePlan(&scan, &ctx);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(*run);
  }
};

TEST_F(ClusteredBatchSweep, BatchMatchesRowOracleIncludingEarlyExit) {
  const int64_t n = t_->row_count();
  // Rows per page of the synthetic layout, to aim ranges at page edges.
  const HeapFile* file = t_->file();
  const char* page0 = db_->disk()->RawPage(PageId{file->segment(), 0});
  const int64_t rpp = HeapFile::PageRowCount(page0);
  ASSERT_GT(rpp, 2);

  struct Range {
    int64_t lo, hi;
  };
  const Range ranges[] = {
      {1, n},                    // full table, no early exit until the end
      {n / 4, n / 2},            // generic mid-table range
      {1, rpp / 2},              // early exit mid-first-page
      {1, rpp},                  // hi on the last row of a page: the exit
                                 // fires on the *next* page's first row
      {rpp + 1, 2 * rpp - 3},    // starts at a page head, ends mid-page
      {n - rpp / 2, n + 500},    // hi past the table: runs off the end
      {n + 1, n + 100},          // empty range beyond all keys
      {-50, 0},                  // empty range below all keys
      {n / 3, n / 3},            // single-key range
  };
  Predicate extra({PredicateAtom::Int64(kC3, CmpOp::kGt, n / 4)});
  for (const Range& r : ranges) {
    const uint64_t seed = static_cast<uint64_t>(r.lo * 31 + r.hi) + 5;
    SCOPED_TRACE(::testing::Message() << "range [" << r.lo << "," << r.hi
                                      << "]");
    // The row oracle peeks each key in scalar code; the batch cutoff runs
    // on the pinned ISA's int64_leading_le.
    RunResult row = RunClustered(r.lo, r.hi, extra, seed, false);
    for (SimdIsa isa : AvailableSimdIsas()) {
      ScopedSimd pin(isa);
      RunResult batch = RunClustered(r.lo, r.hi, extra, seed, true);
      ExpectRunsIdentical(batch, row, SimdIsaName(isa));
    }
  }
}

TEST_F(ClusteredBatchSweep, BatchIdenticalAcrossIsasAndRecordsHistogram) {
  const int64_t n = t_->row_count();
  Predicate extra({PredicateAtom::Int64(kC4, CmpOp::kLe, n / 2)});
  RunResult oracle = RunClustered(n / 8, 3 * n / 4, extra, 99, false);
  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimd pin(isa);
    RunResult batch = RunClustered(n / 8, 3 * n / 4, extra, 99, true);
    ExpectRunsIdentical(batch, oracle, SimdIsaName(isa));
  }

  // A clustered range scan feeds dpcf_scan_batch_rows like every batch
  // scan: one sample per (cut) page.
  MetricsRegistry registry;
  ExecContext ctx(db_->buffer_pool());
  ctx.set_metrics(&registry);
  Predicate pushed;
  pushed.Add(PredicateAtom::Int64(kC1, CmpOp::kGe, 1));
  pushed.Add(PredicateAtom::Int64(kC1, CmpOp::kLe, n / 2));
  TableScanOp scan(t_, pushed, {kC1}, nullptr, /*vectorized=*/true,
                   ClusteredRange{db_->GetIndex("T_c1"), 1, n / 2});
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_GT(run.output.size(), 0u);
  LogHistogram* hist = registry.GetHistogram(
      "dpcf_scan_batch_rows",
      "rows per vectorized predicate batch (one batch per page)", 1.0, 2.0,
      12);
  EXPECT_GT(hist->count(), 0) << "clustered batch path recorded no samples";
}

// --------------------------------------------------- B+-tree leaf runs

TEST_F(ClusteredBatchSweep, NextRunMatchesPerEntryIteration) {
  Btree* tree = db_->GetIndex("T_c2")->tree();
  const int64_t n = t_->row_count();
  struct Case {
    int64_t lo, hi;
  };
  const Case cases[] = {
      {1, n},          // everything
      {n / 3, n / 3},  // single key
      {n / 2, n / 2 + 100},
      {n + 1, n + 50},  // empty: seek lands past every key
      {-10, 0},         // empty: hi below the smallest key
  };
  for (const Case& c : cases) {
    // Reference: per-entry iteration.
    std::vector<BtreeEntry> expect;
    ASSERT_OK_AND_ASSIGN(BtreeIterator ref,
                         tree->SeekFirst(BtreeKey::Min(c.lo)));
    while (ref.Valid() && !(BtreeKey::Max(c.hi) < ref.key())) {
      expect.push_back(ref.entry());
      ASSERT_OK(ref.Next());
    }

    // Leaf-run iteration: same entries in the same order, each run bounded
    // by one leaf, terminated by an empty run (or iterator exhaustion).
    std::vector<BtreeEntry> got;
    ASSERT_OK_AND_ASSIGN(BtreeIterator it,
                         tree->SeekFirst(BtreeKey::Min(c.lo)));
    std::vector<BtreeEntry> run;
    int nonempty_runs = 0;
    while (it.Valid()) {
      ASSERT_OK(it.NextRun(BtreeKey::Max(c.hi), &run));
      if (run.empty()) break;  // bound hit: the iterator parked past hi
      ++nonempty_runs;
      got.insert(got.end(), run.begin(), run.end());
    }
    ASSERT_EQ(got.size(), expect.size())
        << "range [" << c.lo << "," << c.hi << "]";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "entry " << i;
    }
    if (!expect.empty()) {
      EXPECT_GT(nonempty_runs, 0);
    }
  }

  // A resumed iterator continues where the bound stopped it: widen the
  // bound and the next run picks up the first previously-excluded entry.
  ASSERT_OK_AND_ASSIGN(BtreeIterator it, tree->SeekFirst(BtreeKey::Min(1)));
  std::vector<BtreeEntry> first_half, rest;
  while (it.Valid()) {
    std::vector<BtreeEntry> run;
    ASSERT_OK(it.NextRun(BtreeKey::Max(n / 2), &run));
    if (run.empty()) break;
    first_half.insert(first_half.end(), run.begin(), run.end());
  }
  ASSERT_TRUE(it.Valid());
  EXPECT_TRUE(BtreeKey::Max(n / 2) < it.key());
  while (it.Valid()) {
    std::vector<BtreeEntry> run;
    ASSERT_OK(it.NextRun(BtreeKey::Max(n), &run));
    if (run.empty()) break;
    rest.insert(rest.end(), run.begin(), run.end());
  }
  EXPECT_EQ(first_half.size() + rest.size(), static_cast<size_t>(n));
}

}  // namespace
}  // namespace dpcf
