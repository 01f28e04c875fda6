// Property sweep for the vectorized predicate path (DESIGN.md section 12):
// the batch kernel and the batch-fed monitors must be indistinguishable —
// tuples, CpuStats charges, and monitor feedback bit for bit — from the
// row-at-a-time oracle. Both are the two evaluators of one HeapPageStep
// (exec/scan_ops.h), selected by the scan's `vectorized` flag.
//
//  * kernel level: EvalBatch vs Predicate::EvalLeading and EvalBatchDense
//    vs Predicate::EvalNoShortCircuit over every page of the synthetic
//    table, for random conjunctions of int64 and CHAR atoms across all six
//    CmpOps;
//  * scan level: TableScanOp(vectorized) vs TableScanOp(oracle) with
//    prefix-exact, sampled (f < 1) and bitvector monitor requests;
//  * parallel level: ParallelTableScanOp(vectorized) vs the serial oracle.
//    Its 4-thread runs share one const step between workers that each own
//    a Scratch, so the suite also runs under ThreadSanitizer.
//
// The engine has no SQL NULLs — rows are fixed-width and every column is
// populated — so the "NULL handling" corner of the sweep is covered by its
// moral equivalents here: empty batches (n = 0), empty-string and
// space-padded CHAR operands, and 0%/100%/single-row selectivities.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dpsample.h"
#include "core/feedback_driver.h"
#include "exec/executor.h"
#include "exec/parallel_scan.h"
#include "exec/predicate_kernel.h"
#include "exec/scan_ops.h"
#include "table/heap_file.h"
#include "table/row_codec.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::SyntheticDbTest;

// Random conjunction mixing int64 atoms on C1..C5 with an occasional CHAR
// atom on the padding column, uniform over all six CmpOps.
Predicate RandomMixedConjunction(Rng* rng, int64_t n, int max_atoms,
                                 uint32_t pad_width) {
  Predicate pred;
  const int atoms = 1 + static_cast<int>(rng->NextBounded(
                            static_cast<uint64_t>(max_atoms)));
  const int cols[] = {kC1, kC2, kC3, kC4, kC5};
  for (int a = 0; a < atoms; ++a) {
    CmpOp op = static_cast<CmpOp>(rng->NextBounded(6));
    if (rng->NextBounded(4) == 0) {
      // String atom: operands chosen around the constant "pad" value so
      // every CmpOp exercises both outcomes across the sweep.
      const char* operands[] = {"pad", "", "paa", "pae", "zzz"};
      pred.Add(PredicateAtom::String(
          kPadding, op, operands[rng->NextBounded(5)], pad_width));
      continue;
    }
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

class PredicateBatchSweep : public SyntheticDbTest,
                            public ::testing::WithParamInterface<int> {
 protected:
  // Runs `pred` over every page of T twice — batch kernel vs row-at-a-time
  // reference — and asserts identical survivors, leading counts, dense pass
  // bits and CpuStats charges.
  void CheckKernelAgainstOracle(const Predicate& pred) {
    const Schema* schema = &t_->schema();
    const HeapFile* file = t_->file();
    PredicateKernel kernel(pred, schema);
    ASSERT_EQ(kernel.num_atoms(), pred.atoms().size());
    RowBlock block(schema);
    std::vector<uint32_t> sel, leading;
    CpuStats batch_cpu, serial_cpu, dense_batch_cpu, dense_serial_cpu;

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
        ASSERT_EQ(leading[s], lead) << "page " << p << " row " << s << ": "
                                    << pred.ToString(*schema);
        if (lead == pred.atoms().size()) {
          ASSERT_LT(expect_m, m);
          ASSERT_EQ(sel[expect_m], s);
          ++expect_m;
        }
      }
      ASSERT_EQ(m, expect_m) << pred.ToString(*schema);

      // Dense (no-short-circuit) path, as monitors run it on sampled pages.
      std::vector<uint8_t> pass(n);
      kernel.EvalBatchDense(&block, &dense_batch_cpu, pass.data());
      for (uint32_t s = 0; s < n; ++s) {
        RowView row(file->RowInPage(page, static_cast<uint16_t>(s)), schema);
        const bool expect =
            pred.EvalNoShortCircuit(row, &dense_serial_cpu);
        ASSERT_EQ(pass[s] != 0, expect) << "page " << p << " row " << s;
      }
    }
    EXPECT_EQ(batch_cpu.predicate_atom_evals, serial_cpu.predicate_atom_evals)
        << pred.ToString(*schema);
    EXPECT_EQ(dense_batch_cpu.predicate_atom_evals,
              dense_serial_cpu.predicate_atom_evals);
  }
};

TEST_P(PredicateBatchSweep, KernelMatchesRowOracleOnRandomConjunctions) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 48611 + 17);
  const uint32_t pad_width = t_->schema().column(kPadding).size;
  for (int round = 0; round < 4; ++round) {
    CheckKernelAgainstOracle(
        RandomMixedConjunction(&rng, t_->row_count(), 4, pad_width));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateBatchSweep, ::testing::Range(0, 8));

class PredicateBatchEdgeTest : public SyntheticDbTest {};

TEST_F(PredicateBatchEdgeTest, SelectivityExtremes) {
  const uint32_t pad_width = t_->schema().column(kPadding).size;
  const int64_t n = t_->row_count();
  // 0%: no value < 1; the selection vector empties after atom 0, so later
  // atoms must neither run nor charge. 100%: everything passes. Single
  // survivor: C1 is a permutation of 1..n, so C1 == k keeps exactly one
  // row. String extremes: the padding column is the constant "pad".
  struct Case {
    Predicate pred;
    int64_t survivors;
  };
  std::vector<Case> cases;
  cases.push_back({Predicate({PredicateAtom::Int64(kC1, CmpOp::kLt, 1),
                              PredicateAtom::Int64(kC2, CmpOp::kGt, 0)}),
                   0});
  cases.push_back({Predicate(), n});
  cases.push_back({Predicate({PredicateAtom::Int64(kC1, CmpOp::kGe, 1)}), n});
  cases.push_back(
      {Predicate({PredicateAtom::Int64(kC1, CmpOp::kEq, n / 2)}), 1});
  cases.push_back(
      {Predicate({PredicateAtom::String(kPadding, CmpOp::kEq, "pad",
                                        pad_width)}),
       n});
  cases.push_back(
      {Predicate({PredicateAtom::String(kPadding, CmpOp::kNe, "pad",
                                        pad_width)}),
       0});
  // Empty-string operand pads to all spaces, which sorts before "pad...".
  cases.push_back(
      {Predicate({PredicateAtom::String(kPadding, CmpOp::kGt, "",
                                        pad_width)}),
       n});
  cases.push_back(
      {Predicate({PredicateAtom::String(kPadding, CmpOp::kLe, "",
                                        pad_width)}),
       0});

  const Schema* schema = &t_->schema();
  const HeapFile* file = t_->file();
  for (const Case& c : cases) {
    PredicateKernel kernel(c.pred, schema);
    RowBlock block(schema);
    std::vector<uint32_t> sel, leading;
    CpuStats batch_cpu, serial_cpu;
    int64_t survivors = 0;
    for (PageNo p = 0; p < file->page_count(); ++p) {
      const char* page = db_->disk()->RawPage(PageId{file->segment(), p});
      const uint32_t rows = HeapFile::PageRowCount(page);
      block.Reset(HeapFile::PageRows(page), rows);
      sel.resize(rows);
      leading.resize(rows);
      survivors +=
          kernel.EvalBatch(&block, &batch_cpu, sel.data(), leading.data());
      for (uint32_t s = 0; s < rows; ++s) {
        RowView row(file->RowInPage(page, static_cast<uint16_t>(s)), schema);
        c.pred.EvalLeading(row, &serial_cpu);
      }
    }
    EXPECT_EQ(survivors, c.survivors) << c.pred.ToString(*schema);
    EXPECT_EQ(batch_cpu.predicate_atom_evals,
              serial_cpu.predicate_atom_evals)
        << c.pred.ToString(*schema);
  }
}

TEST_F(PredicateBatchEdgeTest, EmptyBatchIsFreeAndEmpty) {
  const Schema* schema = &t_->schema();
  Predicate pred({PredicateAtom::Int64(kC1, CmpOp::kGt, 0)});
  PredicateKernel kernel(pred, schema);
  RowBlock block(schema);
  block.Reset(nullptr, 0);
  CpuStats cpu;
  EXPECT_EQ(kernel.EvalBatch(&block, &cpu, nullptr, nullptr), 0u);
  EXPECT_EQ(cpu.predicate_atom_evals, 0);
  kernel.EvalBatchDense(&block, &cpu, nullptr);
  EXPECT_EQ(cpu.predicate_atom_evals, 0);

  // An empty batch fed to a monitor bundle must leave every counter and
  // the open page's satisfied flag untouched.
  ScanMonitorBundle bundle(pred, schema, /*f=*/1.0, /*seed=*/3);
  ScanExprRequest req;
  req.label = "edge";
  req.expr = pred;
  ASSERT_OK(bundle.AddRequest(req));
  std::vector<const BitvectorFilter*> no_slots;
  bundle.BeginPage(&cpu, 0);
  bundle.ObserveBatch(&block, nullptr, &cpu, no_slots);
  bundle.EndPage();
  auto results = bundle.Finish();
  EXPECT_EQ(results[0].dpc, 0.0);
  EXPECT_EQ(results[0].cardinality, 0.0);
}

// ------------------------------------------------- scan-level equivalence

class VectorizedScanSweep : public SyntheticDbTest,
                            public ::testing::WithParamInterface<int> {
 protected:
  // Builds the bundle used by both paths: a prefix-exact request, a
  // sampled (f = 0.5) request, and a bitvector semi-join request.
  std::unique_ptr<ScanMonitorBundle> MakeBundle(const Predicate& pushed,
                                                const Predicate& requested,
                                                uint64_t seed, int slot) {
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
    ScanExprRequest bv;
    bv.label = "bv";
    bv.expr = requested;
    bv.bitvector_slot = slot;
    bv.bv_col = kC2;
    EXPECT_TRUE(bundle->AddRequest(std::move(bv)).ok());
    return bundle;
  }

  // One monitored scan, vectorized or oracle, with a registered bitvector
  // filter keyed on C2.
  RunResult RunScan(const Predicate& pushed, const Predicate& requested,
                    uint64_t seed, bool vectorized) {
    EXPECT_TRUE(db_->ColdCache().ok());
    ExecContext ctx(db_->buffer_pool());
    const int slot = ctx.AllocateFilterSlot();
    // The C2 domain fits the bits, so the filter passes one key in three.
    auto filter = std::make_unique<BitvectorFilter>(1 << 15);
    for (int64_t k = 1; k <= t_->row_count(); k += 3) filter->AddKey(k);
    EXPECT_TRUE(ctx.SetFilter(slot, std::move(filter)).ok());
    TableScanOp scan(t_, pushed, {kC1, kC5, kPadding},
                     MakeBundle(pushed, requested, seed, slot), vectorized);
    EXPECT_EQ(scan.vectorized(), vectorized);
    auto run = ExecutePlan(&scan, &ctx);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(*run);
  }
};

TEST_P(VectorizedScanSweep, TuplesStatsAndFeedbackMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 92821 + 29);
  const uint32_t pad_width = t_->schema().column(kPadding).size;
  const Predicate pushed =
      RandomMixedConjunction(&rng, t_->row_count(), 3, pad_width);
  const Predicate requested =
      RandomMixedConjunction(&rng, t_->row_count(), 2, pad_width);
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 101;

  RunResult vec = RunScan(pushed, requested, seed, /*vectorized=*/true);
  RunResult oracle = RunScan(pushed, requested, seed, /*vectorized=*/false);

  ASSERT_EQ(vec.output.size(), oracle.output.size())
      << pushed.ToString(t_->schema());
  for (size_t i = 0; i < vec.output.size(); ++i) {
    ASSERT_EQ(vec.output[i], oracle.output[i]) << "tuple " << i;
  }

  const CpuStats& vc = vec.stats.cpu;
  const CpuStats& oc = oracle.stats.cpu;
  EXPECT_EQ(vc.rows_processed, oc.rows_processed);
  EXPECT_EQ(vc.predicate_atom_evals, oc.predicate_atom_evals)
      << pushed.ToString(t_->schema()) << " / "
      << requested.ToString(t_->schema());
  EXPECT_EQ(vc.monitor_row_ops, oc.monitor_row_ops);
  EXPECT_EQ(vc.monitor_hash_ops, oc.monitor_hash_ops);
  EXPECT_EQ(vec.stats.simulated_ms, oracle.stats.simulated_ms);

  ASSERT_EQ(vec.stats.monitors.size(), oracle.stats.monitors.size());
  for (size_t i = 0; i < vec.stats.monitors.size(); ++i) {
    const MonitorRecord& v = vec.stats.monitors[i];
    const MonitorRecord& o = oracle.stats.monitors[i];
    EXPECT_EQ(v.label, o.label);
    EXPECT_EQ(v.mechanism, o.mechanism);
    EXPECT_EQ(v.actual_dpc, o.actual_dpc) << v.label;
    EXPECT_EQ(v.actual_cardinality, o.actual_cardinality) << v.label;
    EXPECT_EQ(v.exact, o.exact);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedScanSweep, ::testing::Range(0, 8));

class ParallelVectorizedSweep : public SyntheticDbTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(ParallelVectorizedSweep, ParallelBatchMatchesSerialOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15013 + 11);
  const uint32_t pad_width = t_->schema().column(kPadding).size;
  const Predicate pushed =
      RandomMixedConjunction(&rng, t_->row_count(), 3, pad_width);
  const Predicate requested =
      RandomMixedConjunction(&rng, t_->row_count(), 2, pad_width);
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 17;

  auto make_bundle = [&] {
    auto bundle = std::make_unique<ScanMonitorBundle>(
        pushed, &t_->schema(), /*f=*/0.5, seed);
    ScanExprRequest req;
    req.label = "sweep";
    req.expr = requested;
    EXPECT_TRUE(bundle->AddRequest(std::move(req)).ok());
    return bundle;
  };

  // Serial row-at-a-time oracle.
  ExecContext serial_ctx(db_->buffer_pool());
  TableScanOp serial(t_, pushed, {kC1, kPadding}, make_bundle(),
                     /*vectorized=*/false);
  ASSERT_OK_AND_ASSIGN(RunResult oracle, ExecutePlan(&serial, &serial_ctx));

  for (int threads : {1, 4}) {
    ExecContext ctx(db_->buffer_pool());
    ParallelScanOptions options;
    options.num_threads = threads;
    options.morsel_pages = 16;
    options.vectorized = true;
    ParallelTableScanOp parallel(t_, pushed, {kC1, kPadding}, make_bundle(),
                                 options);
    ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&parallel, &ctx));
    ASSERT_EQ(run.output.size(), oracle.output.size()) << threads;
    for (size_t i = 0; i < run.output.size(); ++i) {
      ASSERT_EQ(run.output[i], oracle.output[i])
          << "tuple " << i << " at " << threads << " threads";
    }
    ASSERT_EQ(run.stats.monitors.size(), oracle.stats.monitors.size());
    for (size_t i = 0; i < run.stats.monitors.size(); ++i) {
      EXPECT_EQ(run.stats.monitors[i].actual_dpc,
                oracle.stats.monitors[i].actual_dpc)
          << pushed.ToString(t_->schema());
      EXPECT_EQ(run.stats.monitors[i].actual_cardinality,
                oracle.stats.monitors[i].actual_cardinality);
    }
    // Page-parallel batch evaluation performs exactly the serial charges.
    EXPECT_EQ(run.stats.cpu.rows_processed, oracle.stats.cpu.rows_processed);
    EXPECT_EQ(run.stats.cpu.predicate_atom_evals,
              oracle.stats.cpu.predicate_atom_evals);
    EXPECT_EQ(run.stats.cpu.monitor_row_ops,
              oracle.stats.cpu.monitor_row_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVectorizedSweep,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace dpcf
