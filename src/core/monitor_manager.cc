#include "core/monitor_manager.h"

#include <algorithm>

#include "optimizer/cardinality.h"

namespace dpcf {

MonitorManager::MonitorManager(Database* db, MonitorOptions options)
    : db_(db), options_(options) {
  if (db_ == nullptr || !db_->options().observability.metrics) return;
  MetricsRegistry* registry = db_->metrics();
  m_single_table_plans_ = registry->GetCounter(
      "monitor_single_table_plans_total",
      "Single-table plans instrumented with page-count monitors");
  m_join_plans_ = registry->GetCounter(
      "monitor_join_plans_total",
      "Join plans instrumented with page-count monitors");
  m_scan_expressions_ = registry->GetCounter(
      "monitor_scan_expressions_total",
      "Scan expressions wired with grouped-page or DPSample counters");
  m_fetch_counters_ = registry->GetCounter(
      "monitor_fetch_counters_total",
      "PID-stream distinct counters wired into fetch operators");
  m_bitvector_filters_ = registry->GetCounter(
      "monitor_bitvector_filters_total",
      "Bitvector filters registered for probe-side join monitoring");
}

namespace {
/// The configured fraction, raised so at least min_sampled_pages pages are
/// expected to be sampled on small tables.
double EffectiveFraction(const MonitorOptions& options, const Table& table) {
  double f = options.scan_sample_fraction;
  if (options.min_sampled_pages > 0 && table.page_count() > 0) {
    f = std::max(f, static_cast<double>(options.min_sampled_pages) /
                        static_cast<double>(table.page_count()));
  }
  return std::min(1.0, f);
}

/// A monitor on a fetch stream (index plans, the INL join's inner). Only
/// the mechanism is configurable; the benches never varied the sizes.
FetchMonitorRequest FetchRequest(std::string label, bool residual_only,
                                 const MonitorOptions& options,
                                 uint64_t seed) {
  FetchMonitorRequest req;
  req.label = std::move(label);
  req.passing_residual_only = residual_only;
  req.mechanism = options.fetch_mechanism;
  req.numbits = 1 << 14;
  req.reservoir_capacity = 1 << 10;
  req.seed = seed;
  return req;
}
}  // namespace

void MonitorManager::SelectionRequests(
    Table* table, const Predicate& pred,
    std::vector<ScanExprRequest>* requests,
    std::vector<MonitoredExpr>* entries) const {
  if (pred.empty()) return;
  auto add = [&](const Predicate& expr) {
    std::string label = SelPredKey(*table, expr);
    bool dup = std::any_of(
        requests->begin(), requests->end(),
        [&label](const ScanExprRequest& r) { return r.label == label; });
    if (dup) return;
    ScanExprRequest req;
    req.label = label;
    req.expr = expr;
    requests->push_back(req);
    entries->push_back(MonitoredExpr{label, table, expr, false, -1, -1,
                                     nullptr});
  };
  // One expression per index whose leading column the predicate constrains
  // (what an Index Seek on that index would fetch)…
  for (Index* index : db_->catalog().IndexesForTable(table)) {
    if (index->is_clustered_key()) continue;
    if (auto range = BuildIndexRange(pred, index)) {
      add(range->sargable);
    }
  }
  // …plus the full conjunction (free when it is the pushed predicate).
  add(pred);
}

Result<InstrumentedHooks> MonitorManager::ForSingleTable(
    const AccessPathPlan& path, const SingleTableQuery& query) const {
  InstrumentedHooks out;
  out.hooks.scan_sample_fraction = EffectiveFraction(options_, *query.table);
  out.hooks.inner_scan_sample_fraction = out.hooks.scan_sample_fraction;
  out.hooks.seed = options_.seed;
  out.hooks.scan_threads = options_.scan_threads;
  out.hooks.prefetch_pages = options_.prefetch_pages;
  out.hooks.vectorized_scan = options_.vectorized_scan;

  switch (path.kind) {
    case AccessKind::kTableScan:
    case AccessKind::kClusteredRange:
      SelectionRequests(query.table, query.pred,
                        &out.hooks.outer_scan_requests, &out.entries);
      break;
    case AccessKind::kIndexSeek:
    case AccessKind::kIndexIntersection: {
      // The fetch stream carries rows satisfying the seek expression; the
      // residual-qualified stream carries the full expression.
      Predicate seek_expr;
      for (const IndexRange& r : path.ranges) {
        for (const PredicateAtom& a : r.sargable.atoms()) {
          seek_expr.Add(a);
        }
      }
      auto add = [&](const Predicate& expr, bool residual_only,
                     uint64_t seed) {
        std::string label = SelPredKey(*query.table, expr);
        out.entries.push_back(MonitoredExpr{label, query.table, expr, false,
                                            -1, -1, nullptr});
        out.hooks.fetch_requests.push_back(
            FetchRequest(std::move(label), residual_only, options_, seed));
      };
      add(seek_expr, false, options_.seed);
      if (!path.residual.empty()) add(query.pred, true, options_.seed + 1);
      break;
    }
    case AccessKind::kCoveringScan:
      // Leaf-only scan: base-table PIDs are never touched, nothing to
      // monitor (Section II-B's limitation).
      break;
  }
  RecordInstrumentation(out, /*is_join=*/false);
  return out;
}

Result<InstrumentedHooks> MonitorManager::ForJoin(const JoinPlan& plan,
                                                  const JoinQuery& query,
                                                  ExecContext* ctx) const {
  InstrumentedHooks out;
  out.hooks.scan_sample_fraction =
      EffectiveFraction(options_, *query.outer_table);
  out.hooks.inner_scan_sample_fraction =
      EffectiveFraction(options_, *query.inner_table);
  out.hooks.seed = options_.seed;
  out.hooks.vectorized_scan = options_.vectorized_scan;

  const std::string join_label =
      JoinPredKey(*query.outer_table, query.outer_col, *query.inner_table,
                  query.inner_col);
  MonitoredExpr join_entry;
  join_entry.label = join_label;
  join_entry.table = query.inner_table;
  join_entry.is_join = true;
  join_entry.outer_col = query.outer_col;
  join_entry.inner_col = query.inner_col;
  join_entry.outer_table = query.outer_table;

  // Selection expressions on the outer side's scan (if it is a scan).
  if (plan.outer_path.kind == AccessKind::kTableScan ||
      plan.outer_path.kind == AccessKind::kClusteredRange) {
    SelectionRequests(query.outer_table, query.outer_pred,
                      &out.hooks.outer_scan_requests, &out.entries);
  }

  switch (plan.method) {
    case JoinMethod::kIndexNestedLoops:
      out.hooks.fetch_requests.push_back(
          FetchRequest(join_label, false, options_, options_.seed));
      out.entries.push_back(join_entry);
      break;
    case JoinMethod::kHashJoin:
    case JoinMethod::kMergeJoin: {
      const bool scan_probe =
          plan.inner_path.kind == AccessKind::kTableScan ||
          plan.inner_path.kind == AccessKind::kClusteredRange;
      if (scan_probe) {
        SelectionRequests(query.inner_table, query.inner_pred,
                          &out.hooks.inner_scan_requests, &out.entries);
      }
      // A merge join whose inner side sorts drains the inner scan before
      // any outer key is hashed — the filter cannot be used there.
      const bool filter_usable =
          scan_probe && (plan.method == JoinMethod::kHashJoin ||
                         !plan.sort_inner);
      if (filter_usable) {
        BitvectorSpec spec;
        spec.slot = ctx->AllocateFilterSlot();
        spec.numbits = options_.bitvector_bits;
        out.hooks.bitvector = spec;
        ScanExprRequest req;
        req.label = join_label;
        req.bitvector_slot = spec.slot;
        req.bv_col = query.inner_col;
        out.hooks.inner_scan_requests.push_back(req);
        out.entries.push_back(join_entry);
      }
      break;
    }
  }
  RecordInstrumentation(out, /*is_join=*/true);
  return out;
}

void MonitorManager::RecordInstrumentation(const InstrumentedHooks& out,
                                           bool is_join) const {
  if (m_single_table_plans_ == nullptr) return;  // metrics publication off
  if (is_join) {
    m_join_plans_->Increment();
  } else {
    m_single_table_plans_->Increment();
  }
  m_scan_expressions_->Increment(
      static_cast<int64_t>(out.hooks.outer_scan_requests.size() +
                           out.hooks.inner_scan_requests.size()));
  m_fetch_counters_->Increment(
      static_cast<int64_t>(out.hooks.fetch_requests.size()));
  if (out.hooks.bitvector.has_value()) m_bitvector_filters_->Increment();
}

}  // namespace dpcf
