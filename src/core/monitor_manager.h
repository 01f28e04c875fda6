// MonitorManager: decides WHICH expressions to monitor for a given plan and
// wires the corresponding mechanisms into the physical plan.
//
// Given a chosen plan, the relevant expressions are the ones the optimizer
// would need to cost the *alternative* plans (paper Section II-B):
//  * for every non-clustered index on a scanned table whose leading column
//    is constrained, the sargable sub-expression on that index's columns
//    (costing the alternative Index Seek);
//  * the full pushed conjunction (costing the current plan / intersections);
//  * for index plans, the seek expression and the full expression, counted
//    in the Fetch operator by linear counting;
//  * for joins, DPC(inner, join-pred): linear counting when the plan is
//    INL, bitvector filtering + DPSample when it is Hash or Merge.
//
// An unmonitored run lowers the plan with default hooks. Fetch-stream
// monitors have fixed sizes (a 16K-bit linear counter, a 1K-slot
// reservoir); MonitorOptions holds only what the driver and the benches
// set.

#pragma once

#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/dpsample.h"
#include "exec/exec_context.h"
#include "optimizer/plan.h"
#include "table/catalog.h"

namespace dpcf {

struct MonitorOptions {
  /// DPSample f for non-prefix scan expressions.
  double scan_sample_fraction = 0.01;
  /// Floor on expected sampled pages: on small tables the fraction is
  /// raised to min_sampled_pages / page_count so estimates stay usable
  /// (f alone is tuned for the paper's million-page tables).
  int64_t min_sampled_pages = 96;
  /// Fetch-stream distinct counting: the paper's linear counting, or the
  /// reservoir+GEE alternative it names (compared in
  /// bench_ablation_estimators).
  DistinctCountMechanism fetch_mechanism =
      DistinctCountMechanism::kLinearCounting;
  /// Join bitvector size. Direct bit addressing is exact while the
  /// join-key domain fits (paper's exactness condition); fewer bits fold
  /// the domain and can only overestimate (bench_ablation_bitvector).
  uint32_t bitvector_bits = 1 << 20;
  uint64_t seed = 0x5eed;
  /// Worker threads for full table scans (forwarded into
  /// PlanMonitorHooks::scan_threads; > 1 enables morsel parallelism on the
  /// single-table scan path). Monitor feedback is identical at any thread
  /// count — the bundles are mergeable sketches.
  int scan_threads = 1;
  /// Readahead window for parallel scans (forwarded into
  /// PlanMonitorHooks::prefetch_pages); 0 disables readahead. Readahead
  /// only changes *when* pages enter the buffer pool, never the monitor
  /// stream, so feedback stays bit-for-bit identical.
  uint32_t prefetch_pages = 0;
  /// Vectorized predicate kernels on every heap scan (forwarded into
  /// PlanMonitorHooks::vectorized_scan; DESIGN.md section 12). Off = the
  /// page step's row-at-a-time oracle. Either way the tuples, CpuStats,
  /// and monitor feedback are bit-for-bit identical; only wall-clock
  /// differs.
  bool vectorized_scan = true;
};

/// What a monitor label refers to — kept alongside the hooks so the
/// diagnosis layer can recompute the optimizer's estimate for the same
/// expression and show estimated vs actual.
struct MonitoredExpr {
  std::string label;  // == feedback/hint key
  Table* table = nullptr;
  Predicate expr;     // selection expression (empty for pure join preds)
  bool is_join = false;
  /// For join expressions: the join query columns.
  int outer_col = -1;
  int inner_col = -1;
  Table* outer_table = nullptr;
};

/// Hooks plus the catalog of what they measure.
struct InstrumentedHooks {
  PlanMonitorHooks hooks;
  std::vector<MonitoredExpr> entries;
};

class MonitorManager {
 public:
  /// Resolves the monitor_* counters from db->metrics() (no-op handles
  /// when the Database was built with observability.metrics = false).
  explicit MonitorManager(Database* db, MonitorOptions options = {});

  const MonitorOptions& options() const { return options_; }

  /// Monitoring hooks for a single-table plan. Const and thread-safe:
  /// one manager may serve concurrent sessions (counter publication is
  /// relaxed-atomic).
  Result<InstrumentedHooks> ForSingleTable(const AccessPathPlan& path,
                                           const SingleTableQuery& query)
      const;

  /// Monitoring hooks for a join plan. Allocates the bitvector slot in
  /// `ctx` when the method needs one.
  Result<InstrumentedHooks> ForJoin(const JoinPlan& plan,
                                    const JoinQuery& query,
                                    ExecContext* ctx) const;

  /// Scan requests for the selection expressions relevant on `table`
  /// (one per usable non-clustered index, plus the full conjunction).
  void SelectionRequests(Table* table, const Predicate& pred,
                         std::vector<ScanExprRequest>* requests,
                         std::vector<MonitoredExpr>* entries) const;

 private:
  void RecordInstrumentation(const InstrumentedHooks& out,
                             bool is_join) const;

  Database* db_;
  MonitorOptions options_;
  // Registry counter handles; null when metrics publication is off.
  Counter* m_single_table_plans_ = nullptr;
  Counter* m_join_plans_ = nullptr;
  Counter* m_scan_expressions_ = nullptr;
  Counter* m_fetch_counters_ = nullptr;
  Counter* m_bitvector_filters_ = nullptr;
};

}  // namespace dpcf
