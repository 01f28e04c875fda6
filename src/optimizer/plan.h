// Plan descriptors and physical-plan construction.
//
// The optimizer produces AccessPathPlan / JoinPlan descriptors (with their
// cost and DPC estimates attached, so diagnosis tools can show *why* a plan
// was chosen); BuildSingleTableExec / BuildJoinExec lower a descriptor to an
// operator tree, optionally instrumented with the page-count monitors the
// MonitorManager requests.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dpsample.h"
#include "exec/join_ops.h"
#include "exec/operator.h"
#include "exec/parallel_scan.h"
#include "exec/scan_ops.h"
#include "index/secondary_index.h"

namespace dpcf {

/// SELECT COUNT(*) | COUNT(col) | cols FROM table WHERE pred.
struct SingleTableQuery {
  Table* table = nullptr;
  Predicate pred;
  bool count_star = true;
  /// For COUNT(col): the referenced column (>= 0). The count is identical
  /// to COUNT(*) (no NULLs), but the reference matters for covering-index
  /// eligibility — the paper's COUNT(padding) queries exist precisely so
  /// no index covers them.
  int count_col = -1;
  std::vector<int> projection;  // used when !count_star
};

/// SELECT COUNT(*) FROM outer JOIN inner ON outer.col = inner.col
/// WHERE outer_pred AND inner_pred. The outer side carries the driving
/// selection (the paper's T1); the inner side owns the join-column index
/// relevant for INL costing.
struct JoinQuery {
  Table* outer_table = nullptr;
  Predicate outer_pred;
  int outer_col = -1;
  Table* inner_table = nullptr;
  Predicate inner_pred;
  int inner_col = -1;
  bool count_star = true;
  /// Column of the inner/outer table referenced by COUNT(col), or -1.
  int inner_count_col = -1;
  int outer_count_col = -1;
};

enum class AccessKind {
  kTableScan,
  kClusteredRange,
  kIndexSeek,
  kIndexIntersection,
  kCoveringScan,
};

const char* AccessKindName(AccessKind kind);

/// One usable index range derived from the sargable atoms of a predicate.
struct IndexRange {
  Index* index = nullptr;
  BtreeKey lo;
  BtreeKey hi;
  /// The atoms the range covers (in index-column order); becomes the
  /// monitored "seek expression".
  Predicate sargable;
  double est_rows = 0;  // rows satisfying `sargable`
};

/// A costed way to access one table.
struct AccessPathPlan {
  AccessKind kind = AccessKind::kTableScan;
  Table* table = nullptr;
  Predicate full_pred;
  std::vector<IndexRange> ranges;  // 1 (seek/covering/clustered), 2 (∩)
  Predicate residual;              // full_pred minus the sargable atoms
  int64_t cluster_lo = 0;          // kClusteredRange bounds on the key col
  int64_t cluster_hi = 0;

  double est_rows = 0;       // rows satisfying full_pred
  double est_seek_rows = 0;  // rows the fetch stream will carry
  double est_dpc = 0;        // distinct pages the plan fetches randomly
  double est_cost = 0;
  std::string dpc_source;  // "yao", "hint", "n/a"

  std::string Describe() const;

  /// Structural identity (kind + table + indexes), independent of the
  /// estimates — what "the plan changed" means.
  std::string Signature() const;
};

enum class JoinMethod { kHashJoin, kMergeJoin, kIndexNestedLoops };

const char* JoinMethodName(JoinMethod method);

/// A costed join strategy (direction is fixed by the query).
struct JoinPlan {
  JoinMethod method = JoinMethod::kHashJoin;
  AccessPathPlan outer_path;  // build side (hash) / driving side (INL)
  AccessPathPlan inner_path;  // probe side (hash/merge); ignored for INL
  Index* inl_index = nullptr;
  bool sort_outer = false;
  bool sort_inner = false;

  double est_join_rows = 0;
  double est_inner_dpc = 0;  // DPC(inner, join-pred) used for INL costing
  double est_cost = 0;
  std::string dpc_source;

  std::string Describe() const;
  std::string Signature() const;
};

/// Extracts the sargable bounds on `col` from a conjunction. Returns the
/// atoms consumed and tightest [lo, hi]; nullopt if no atom constrains col.
struct ColumnRange {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  Predicate atoms;
};
std::optional<ColumnRange> ExtractColumnRange(const Predicate& pred, int col);

/// Builds the usable range for an index from a predicate (leading column
/// must be constrained; a second key column extends the range only when the
/// leading constraint is an equality point).
std::optional<IndexRange> BuildIndexRange(const Predicate& pred,
                                          Index* index);

/// Atoms of `pred` not contained in `used` (by SameAs), preserving order.
Predicate RemoveAtoms(const Predicate& pred, const Predicate& used);

/// Monitor instrumentation passed to the plan builders. Empty hooks build
/// an unmonitored plan.
struct PlanMonitorHooks {
  double scan_sample_fraction = 0.01;
  /// Fraction for the inner/probe side's scan (small inner tables may
  /// need a higher fraction than the outer).
  double inner_scan_sample_fraction = 0.01;
  uint64_t seed = 0x5eed;
  /// Requests attached to the (single or outer) table's scan.
  std::vector<ScanExprRequest> outer_scan_requests;
  /// Requests attached to the inner/probe table's scan.
  std::vector<ScanExprRequest> inner_scan_requests;
  /// Linear-counting monitors on the fetch stream (index plans, INL join).
  std::vector<FetchMonitorRequest> fetch_requests;
  /// Bitvector the join should build and register (hash/merge).
  std::optional<BitvectorSpec> bitvector;
  /// Worker threads for full table scans (morsel-parallel when > 1).
  /// Applies to the single-table kTableScan path only: join children stay
  /// serial because a partial merge-join bitvector is built concurrently
  /// with the probe scan that observes it.
  int scan_threads = 1;
  /// Readahead window for the parallel scan (see
  /// ParallelScanOptions::prefetch_pages). 0 disables readahead.
  uint32_t prefetch_pages = 0;
  /// Vectorized predicate kernels for every heap scan (kTableScan serial
  /// and parallel, kClusteredRange); off = the page step's row-at-a-time
  /// oracle.
  bool vectorized_scan = true;
};

/// Lowers an access-path descriptor to an operator tree over `table`.
/// `projection` lists emitted columns; scan monitors come from `requests`.
/// kTableScan and kClusteredRange both lower to TableScanOp (the latter
/// with a ClusteredRange). `parallel.num_threads > 1` lowers kTableScan to
/// a morsel-parallel scan; `parallel.vectorized` applies to both heap
/// scans, and the index access kinds ignore `parallel`.
Result<OperatorPtr> BuildAccessPathOp(
    const AccessPathPlan& path, const std::vector<int>& projection,
    const std::vector<ScanExprRequest>& scan_requests,
    const std::vector<FetchMonitorRequest>& fetch_requests,
    double sample_fraction, uint64_t seed,
    const ParallelScanOptions& parallel = {});

/// Full single-table executable (adds COUNT aggregation when requested).
Result<OperatorPtr> BuildSingleTableExec(const AccessPathPlan& path,
                                         const SingleTableQuery& query,
                                         const PlanMonitorHooks& hooks);

/// Full join executable (adds COUNT aggregation when requested).
Result<OperatorPtr> BuildJoinExec(const JoinPlan& plan,
                                  const JoinQuery& query,
                                  const PlanMonitorHooks& hooks);

/// True if `path` emits rows physically ordered by `col` (needed to elide
/// sorts under a Merge Join).
bool PathEmitsSortedBy(const AccessPathPlan& path, int col);

}  // namespace dpcf
