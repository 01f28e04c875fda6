// FeedbackDriver: the paper's evaluation methodology as a reusable library
// component (Section V-B).
//
// For a query Q:
//   1. (optionally) inject *accurate cardinalities*, computed exactly, so
//      any plan change is attributable to page counts alone;
//   2. optimize → plan P; execute P on a cold cache → time T;
//   3. execute P again with monitoring on → actual DPC per relevant
//      expression (and the monitoring overhead);
//   4. feed the observed DPCs back as optimizer hints; re-optimize → P′;
//   5. execute P′ on a cold cache → time T′; report SpeedUp = (T − T′)/T.
//
// Times are simulated milliseconds from the deterministic device model;
// wall-clock times are recorded alongside for the overhead experiments.
//
// RunSingleTable and RunJoin are one loop: both call the same templated
// body, and each step that differs by query kind (inject, optimize,
// instrument, lower) is an overload pair. A change to the methodology is
// made once. The exact oracles below walk the tables' raw page images a
// page at a time (HeapFile::ForEachRawPage) and evaluate each page as one
// batch on the scalar predicate kernel: diagnostic-time work, charged to
// no run, and computed by other code than the dispatched scans it checks.

#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/feedback_store.h"
#include "core/monitor_manager.h"
#include "core/run_statistics.h"
#include "exec/executor.h"
#include "obs/drift_monitor.h"
#include "obs/estimation_error_tracker.h"
#include "optimizer/optimizer.h"

namespace dpcf {

struct FeedbackRunOptions {
  MonitorOptions monitor;
  /// Inject exact cardinalities before optimizing (paper methodology:
  /// isolates DPC effects from cardinality errors).
  bool inject_accurate_cardinalities = true;
  /// Additionally fold single-column-range observations into self-tuning
  /// DPC histograms so feedback generalizes to *different* bounds on the
  /// same column (paper Section II-C / VI extension).
  bool learn_dpc_histograms = true;
  SimCostParams cost_params;
  uint64_t exec_seed = 0x5eed;
  /// Thread OpProfiles through every run and render the monitored run as
  /// an annotated EXPLAIN ANALYZE plan (FeedbackOutcome::annotated_plan).
  /// Off by default: profiling snapshots IoStats around every operator
  /// call, which is measurable on the per-row Next path.
  bool profile_operators = false;
  /// Estimation-drift alerting thresholds (obs/drift_monitor.h): every
  /// diagnosed MonitorRecord is folded into per-(table, expression) EWMA
  /// q-error series and FeedbackOutcome::reoptimization_advised reports
  /// whether any series is in alert.
  DriftMonitorOptions drift;
};

/// Everything the methodology produces for one query.
struct FeedbackOutcome {
  std::string plan_before;
  std::string plan_after;
  bool plan_changed = false;

  RunStatistics baseline_run;   // P, unmonitored, cold cache
  RunStatistics monitored_run;  // P, monitored, cold cache
  RunStatistics improved_run;   // P′, unmonitored, cold cache

  double time_before_ms = 0;  // T
  double time_after_ms = 0;   // T′
  double speedup = 0;         // (T − T′) / T
  /// (T_monitored − T) / T in simulated time.
  double monitor_overhead = 0;

  /// Monitor observations with optimizer estimates attached.
  std::vector<MonitorRecord> feedback;

  /// EXPLAIN ANALYZE rendering of the monitored run — per-operator rows /
  /// time / I/O plus estimated vs actual DPC per monitored expression.
  /// Empty unless FeedbackRunOptions::profile_operators was set.
  std::string annotated_plan;

  /// The query's result (the COUNT value), from the baseline run; -1 when
  /// the query returned no row.
  int64_t count_result = -1;

  /// True when, after folding this query's feedback into the driver's
  /// DriftMonitor, at least one (table, expression) q-error series is in
  /// alert — the estimates have been persistently wrong enough that
  /// re-optimizing dependent plans is advised.
  bool reoptimization_advised = false;
};

/// The raw walk every exact oracle here and ComputeClusteringRatio share:
/// calls fn(page_no, block, sel) once per page of `table`, in page order
/// (HeapFile::ForEachRawPage), with `block` bound to the page's rows and
/// sel the ascending indexes of the rows passing `pred`. The page is
/// evaluated by a PredicateKernel on the scalar SimdOps table, whatever ISA
/// is active, and charged to a throwaway CpuStats.
void ForEachRawPageMatch(
    DiskManager* disk, const Table& table, const Predicate& pred,
    const std::function<void(PageNo, const RowBlock&,
                             std::span<const uint32_t>)>& fn);

/// Exact row count of a predicate by raw table walk (diagnostic-time).
int64_t ExactCardinality(DiskManager* disk, const Table& table,
                         const Predicate& pred);

struct ExactJoinCardinalities {
  int64_t join_rows = 0;  // |σ(outer) ⋈ σ(inner)|
  /// Inner rows matching some (filtered) outer key, ignoring the inner
  /// selection — the fetch stream of an INL join (paper Section IV).
  int64_t semi_join_rows = 0;
  int64_t outer_rows = 0;  // |σ(outer)|
  int64_t inner_rows = 0;  // |σ(inner)|
};
/// All four counts by two raw walks (ForEachRawPageMatch): the filtered
/// outer keys go into one JoinHashTable (exec/join_hash_table.h), and each
/// inner row adds its key's run length to join_rows when the inner
/// predicate passes, and 1 to semi_join_rows when the run is non-empty.
/// Fails only if the outer side has more rows than a 32-bit row index
/// holds.
Result<ExactJoinCardinalities> ExactJoinCardinality(DiskManager* disk,
                                                    const JoinQuery& query);

class FeedbackDriver {
 public:
  FeedbackDriver(Database* db, StatisticsCatalog* stats,
                 FeedbackRunOptions options = {});

  Result<FeedbackOutcome> RunSingleTable(const SingleTableQuery& query);
  Result<FeedbackOutcome> RunJoin(const JoinQuery& query);

  /// Feedback accumulated across queries (reusable for similar queries).
  FeedbackStore* store() { return &store_; }
  OptimizerHints* hints() { return &hints_; }
  DpcHistogramCatalog* dpc_histograms() { return &dpc_histograms_; }
  /// Workload-level q-error aggregation: every diagnosed MonitorRecord is
  /// folded into per-(table, mechanism) histograms of DPC and cardinality
  /// error. Queryable any time; fig benches dump its Report().
  EstimationErrorTracker* error_tracker() { return &error_tracker_; }
  /// Per-(table, expression) EWMA q-error series with alerting; every
  /// diagnosed MonitorRecord is folded in after each run.
  DriftMonitor* drift_monitor() { return &drift_monitor_; }
  Database* db() const { return db_; }
  const FeedbackRunOptions& options() const { return options_; }

 private:
  /// The methodology above, written once for both query kinds; the
  /// per-kind steps are overloads in the .cc.
  template <typename Query>
  Result<FeedbackOutcome> Run(const Query& query);

  /// Cold-cache run of `plan`. A non-null `entries` runs it monitored and
  /// receives what the monitors measure.
  template <typename Plan, typename Query>
  Result<RunStatistics> Execute(const Plan& plan, const Query& query,
                                std::vector<MonitoredExpr>* entries,
                                int64_t* count_result = nullptr);

  /// Step 1: exact cardinalities of every expression the optimizer costs.
  Status InjectCardinalities(const SingleTableQuery& query);
  Status InjectCardinalities(const JoinQuery& query);
  /// Hints `pred` (no-op when empty) at `pred_rows`, its exact count, and
  /// walks `table` for each index's sargable part not hinted yet.
  void InjectSelectionCardinalities(Table* table, const Predicate& pred,
                                    int64_t pred_rows);

  void AttachEstimates(const Optimizer& opt,
                       const std::vector<MonitoredExpr>& entries,
                       const JoinQuery* join_query, RunStatistics* stats);

  /// Folds single-column-range monitor observations into the self-tuning
  /// DPC histograms.
  void LearnDpcHistograms(const std::vector<MonitoredExpr>& entries,
                          const RunStatistics& stats);

  Database* db_;
  StatisticsCatalog* stats_;
  FeedbackRunOptions options_;
  OptimizerHints hints_;
  FeedbackStore store_;
  DpcHistogramCatalog dpc_histograms_;
  EstimationErrorTracker error_tracker_;
  DriftMonitor drift_monitor_;
};

}  // namespace dpcf
