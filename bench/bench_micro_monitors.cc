// Micro-benchmarks (google-benchmark) for the monitoring primitives on the
// storage-engine hot path: PID hashing, linear-counter adds, bitvector
// probes, predicate atom evaluation with/without short-circuiting, and a
// full scan with and without a monitor bundle.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/hash.h"
#include "core/bitvector_filter.h"
#include "core/dpsample.h"
#include "core/linear_counter.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"
#include "workload/synthetic.h"

namespace dpcf {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_LinearCounterAdd(benchmark::State& state) {
  LinearCounter counter(static_cast<uint32_t>(state.range(0)));
  uint64_t pid = 1;
  for (auto _ : state) {
    counter.Add(pid++);
  }
  benchmark::DoNotOptimize(counter.BitsSet());
}
BENCHMARK(BM_LinearCounterAdd)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitvectorProbe(benchmark::State& state) {
  BitvectorFilter filter(1 << 20);
  for (int64_t k = 0; k < 10'000; ++k) filter.AddKey(k * 3);
  int64_t probe = 0;
  bool acc = false;
  for (auto _ : state) {
    acc ^= filter.MayContain(probe++);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BitvectorProbe);

class ScanFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (db != nullptr) return;
    db_holder = std::make_unique<Database>([] {
      DatabaseOptions o;
      o.page_size = kDefaultPageSize;
      o.buffer_pool_pages = 4096;
      return o;
    }());
    db = db_holder.get();
    SyntheticOptions opts;
    opts.num_rows = 100'000;
    opts.build_indexes = false;
    auto built = BuildSyntheticTable(db, "T", opts);
    if (built.ok()) t = *built;
  }
  static std::unique_ptr<Database> db_holder;
  static Database* db;
  static Table* t;
};
std::unique_ptr<Database> ScanFixture::db_holder;
Database* ScanFixture::db = nullptr;
Table* ScanFixture::t = nullptr;

BENCHMARK_F(ScanFixture, ScanUnmonitored)(benchmark::State& state) {
  Predicate pred({PredicateAtom::Int64(kC3, CmpOp::kLt, 5000)});
  for (auto _ : state) {
    ExecContext ctx(db->buffer_pool());
    TableScanOp scan(t, pred, {});
    auto result = ExecutePlan(&scan, &ctx);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * t->row_count());
}

BENCHMARK_F(ScanFixture, ScanWithPrefixMonitor)(benchmark::State& state) {
  Predicate pred({PredicateAtom::Int64(kC3, CmpOp::kLt, 5000)});
  for (auto _ : state) {
    ExecContext ctx(db->buffer_pool());
    auto bundle = std::make_unique<ScanMonitorBundle>(pred, &t->schema(),
                                                      0.01, 7);
    ScanExprRequest req;
    req.label = "x";
    req.expr = pred;
    (void)bundle->AddRequest(req);
    TableScanOp scan(t, pred, {}, std::move(bundle));
    auto result = ExecutePlan(&scan, &ctx);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * t->row_count());
}

BENCHMARK_F(ScanFixture, ScanWithSampledMonitor)(benchmark::State& state) {
  Predicate pred({PredicateAtom::Int64(kC3, CmpOp::kLt, 5000)});
  Predicate other({PredicateAtom::Int64(kC4, CmpOp::kLt, 5000)});
  for (auto _ : state) {
    ExecContext ctx(db->buffer_pool());
    auto bundle = std::make_unique<ScanMonitorBundle>(pred, &t->schema(),
                                                      0.01, 7);
    ScanExprRequest req;
    req.label = "x";
    req.expr = other;  // non-prefix: DPSample path
    (void)bundle->AddRequest(req);
    TableScanOp scan(t, pred, {}, std::move(bundle));
    auto result = ExecutePlan(&scan, &ctx);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * t->row_count());
}

}  // namespace
}  // namespace dpcf

BENCHMARK_MAIN();
