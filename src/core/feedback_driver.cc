#include "core/feedback_driver.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/string_util.h"
#include "exec/join_hash_table.h"
#include "exec/predicate_kernel.h"
#include "obs/op_profile.h"

namespace dpcf {

FeedbackDriver::FeedbackDriver(Database* db, StatisticsCatalog* stats,
                               FeedbackRunOptions options)
    : db_(db),
      stats_(stats),
      options_(options),
      drift_monitor_(options.drift) {
  drift_monitor_.AttachObservability(
      db_->options().observability.metrics ? db_->metrics() : nullptr,
      db_->journal());
}

void ForEachRawPageMatch(
    DiskManager* disk, const Table& table, const Predicate& pred,
    const std::function<void(PageNo, const RowBlock&,
                             std::span<const uint32_t>)>& fn) {
  // Scalar, whatever ISA is active: the counts the dispatched scans are
  // checked against come from other code than those scans.
  const PredicateKernel kernel(pred, &table.schema(), ScalarSimdOps());
  RowBlock block(&table.schema());
  std::vector<uint32_t> sel(table.rows_per_page());
  CpuStats uncharged;  // diagnostic-time work belongs to no run
  table.file()->ForEachRawPage(
      disk, [&](PageNo p, const char* rows, uint32_t n) {
        assert(n <= sel.size());
        block.Reset(rows, n);
        const uint32_t m =
            kernel.EvalBatch(&block, &uncharged, sel.data(), nullptr);
        fn(p, block, std::span<const uint32_t>(sel.data(), m));
      });
}

int64_t ExactCardinality(DiskManager* disk, const Table& table,
                         const Predicate& pred) {
  int64_t count = 0;
  ForEachRawPageMatch(disk, table, pred,
                      [&](PageNo, const RowBlock&,
                          std::span<const uint32_t> sel) {
                        count += static_cast<int64_t>(sel.size());
                      });
  return count;
}

Result<ExactJoinCardinalities> ExactJoinCardinality(DiskManager* disk,
                                                    const JoinQuery& query) {
  ExactJoinCardinalities out;
  // Multiset of filtered outer keys: a key's run length is its count.
  std::vector<int64_t> outer_keys;
  const auto outer_col = static_cast<size_t>(query.outer_col);
  ForEachRawPageMatch(disk, *query.outer_table, query.outer_pred,
                      [&](PageNo, const RowBlock& block,
                          std::span<const uint32_t> sel) {
                        for (uint32_t r : sel) {
                          outer_keys.push_back(
                              RowView(block.row(r), block.schema())
                                  .GetInt64(outer_col));
                        }
                      });
  out.outer_rows = static_cast<int64_t>(outer_keys.size());
  JoinHashTable table;
  DPCF_RETURN_IF_ERROR(table.Build(outer_keys));
  // Every inner row probes (semi_join_rows ignores the inner selection);
  // sel, ascending, says which of them pass it.
  const auto inner_col = static_cast<size_t>(query.inner_col);
  ForEachRawPageMatch(
      disk, *query.inner_table, query.inner_pred,
      [&](PageNo, const RowBlock& block, std::span<const uint32_t> sel) {
        out.inner_rows += static_cast<int64_t>(sel.size());
        size_t next = 0;  // sel[next] is the next passing row
        for (uint32_t r = 0; r < block.size(); ++r) {
          const bool passes = next < sel.size() && sel[next] == r;
          next += passes;
          const size_t matches =
              table
                  .Find(RowView(block.row(r), block.schema())
                            .GetInt64(inner_col))
                  .size();
          if (matches == 0) continue;
          ++out.semi_join_rows;
          if (passes) out.join_rows += static_cast<int64_t>(matches);
        }
      });
  return out;
}

void FeedbackDriver::InjectSelectionCardinalities(Table* table,
                                                  const Predicate& pred,
                                                  int64_t pred_rows) {
  if (pred.empty()) return;
  DiskManager* disk = db_->disk();
  auto inject_once = [&](const Predicate& expr) {
    std::string key = SelPredKey(*table, expr);
    if (!hints_.Cardinality(key).has_value()) {
      hints_.SetCardinality(
          key, static_cast<double>(ExactCardinality(disk, *table, expr)));
    }
  };
  // Full conjunction…
  hints_.SetCardinality(SelPredKey(*table, pred),
                        static_cast<double>(pred_rows));
  // …the sargable expression of every index the optimizer could seek…
  std::vector<Predicate> sargables;
  for (Index* index : db_->catalog().IndexesForTable(table)) {
    auto range = BuildIndexRange(pred, index);
    if (!range.has_value()) continue;
    inject_once(range->sargable);
    if (!index->is_clustered_key()) sargables.push_back(range->sargable);
  }
  // …and their pairwise combinations (index intersections).
  for (size_t i = 0; i < sargables.size(); ++i) {
    for (size_t j = i + 1; j < sargables.size(); ++j) {
      Predicate combined = sargables[i];
      for (const PredicateAtom& a : sargables[j].atoms()) combined.Add(a);
      inject_once(combined);
    }
  }
}

Status FeedbackDriver::InjectCardinalities(const SingleTableQuery& query) {
  if (!query.pred.empty()) {
    InjectSelectionCardinalities(
        query.table, query.pred,
        ExactCardinality(db_->disk(), *query.table, query.pred));
  }
  return Status::OK();
}

Status FeedbackDriver::InjectCardinalities(const JoinQuery& query) {
  // The join oracle's walks count both filtered sides too, so each table
  // is walked once.
  DPCF_ASSIGN_OR_RETURN(ExactJoinCardinalities exact,
                        ExactJoinCardinality(db_->disk(), query));
  InjectSelectionCardinalities(query.outer_table, query.outer_pred,
                               exact.outer_rows);
  InjectSelectionCardinalities(query.inner_table, query.inner_pred,
                               exact.inner_rows);
  hints_.SetCardinality(
      JoinPredKey(*query.outer_table, query.outer_col, *query.inner_table,
                  query.inner_col),
      static_cast<double>(exact.join_rows));
  return Status::OK();
}

namespace {
// Process-wide query-id sequence for trace-span tagging: concurrent
// sessions (multiple drivers on one Database) must never share an id. Ids
// only label trace output — feedback never reads them — so a process-global
// counter does not compromise feedback determinism.
std::atomic<uint64_t> g_next_query_id{1};

void AttachObservability(ExecContext* ctx, Database* db,
                         const FeedbackRunOptions& options) {
  ctx->set_trace(db->trace());
  ctx->set_profiling(options.profile_operators);
  ctx->set_query_id(g_next_query_id.fetch_add(1, std::memory_order_relaxed));
  if (db->options().observability.metrics) ctx->set_metrics(db->metrics());
  ctx->set_journal(db->journal());
}

// The loop's per-kind steps, one overload per query kind.
Result<AccessPathPlan> Optimize(const Optimizer& opt,
                                const SingleTableQuery& query) {
  return opt.OptimizeSingleTable(query);
}
Result<JoinPlan> Optimize(const Optimizer& opt, const JoinQuery& query) {
  return opt.OptimizeJoin(query);
}

Result<InstrumentedHooks> Instrument(const MonitorManager& mm,
                                     const AccessPathPlan& path,
                                     const SingleTableQuery& query,
                                     ExecContext*) {
  return mm.ForSingleTable(path, query);
}
Result<InstrumentedHooks> Instrument(const MonitorManager& mm,
                                     const JoinPlan& plan,
                                     const JoinQuery& query,
                                     ExecContext* ctx) {
  return mm.ForJoin(plan, query, ctx);
}

Result<OperatorPtr> Lower(const AccessPathPlan& path,
                          const SingleTableQuery& query,
                          const PlanMonitorHooks& hooks) {
  return BuildSingleTableExec(path, query, hooks);
}
Result<OperatorPtr> Lower(const JoinPlan& plan, const JoinQuery& query,
                          const PlanMonitorHooks& hooks) {
  return BuildJoinExec(plan, query, hooks);
}

/// The join whose monitored expression AttachEstimates re-estimates.
const JoinQuery* JoinOf(const SingleTableQuery&) { return nullptr; }
const JoinQuery* JoinOf(const JoinQuery& query) { return &query; }
}  // namespace

template <typename Plan, typename Query>
Result<RunStatistics> FeedbackDriver::Execute(
    const Plan& plan, const Query& query,
    std::vector<MonitoredExpr>* entries, int64_t* count_result) {
  DPCF_RETURN_IF_ERROR(db_->ColdCache());
  ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
  AttachObservability(&ctx, db_, options_);
  PlanMonitorHooks hooks;
  hooks.scan_sample_fraction = options_.monitor.scan_sample_fraction;
  hooks.seed = options_.monitor.seed;
  hooks.vectorized_scan = options_.monitor.vectorized_scan;
  if (entries != nullptr) {
    MonitorManager mm(db_, options_.monitor);
    DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih,
                          Instrument(mm, plan, query, &ctx));
    hooks = std::move(ih.hooks);
    *entries = std::move(ih.entries);
  }
  DPCF_ASSIGN_OR_RETURN(OperatorPtr root, Lower(plan, query, hooks));
  DPCF_ASSIGN_OR_RETURN(RunResult result,
                        ExecutePlan(root.get(), &ctx, options_.cost_params));
  if (count_result != nullptr) {
    *count_result = result.output.empty() || result.output[0].empty()
                        ? -1
                        : result.output[0][0].AsInt64();
  }
  return result.stats;
}

void FeedbackDriver::AttachEstimates(
    const Optimizer& opt, const std::vector<MonitoredExpr>& entries,
    const JoinQuery* join_query, RunStatistics* stats) {
  for (MonitorRecord& rec : stats->monitors) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&rec](const MonitoredExpr& e) {
                             return e.label == rec.label;
                           });
    if (it == entries.end()) continue;
    if (it->is_join && join_query != nullptr) {
      double outer_rows = opt.cardinality().EstimateRows(
          *join_query->outer_table, join_query->outer_pred);
      // Join predicate only — the inner selection is not part of the
      // monitored expression (paper Section IV).
      double semi_est = opt.cardinality().EstimateJoinRows(
          *join_query->outer_table, outer_rows, join_query->outer_col,
          *join_query->inner_table,
          static_cast<double>(join_query->inner_table->row_count()),
          join_query->inner_col);
      semi_est = std::min(
          semi_est,
          static_cast<double>(join_query->inner_table->row_count()));
      rec.estimated_cardinality = semi_est;
      rec.estimated_dpc =
          opt.EstimateJoinDpc(*join_query, semi_est, nullptr);
    } else {
      double est_rows = opt.cardinality().EstimateRows(*it->table, it->expr);
      rec.estimated_cardinality = est_rows;
      rec.estimated_dpc =
          opt.EstimateDpc(*it->table, it->expr, est_rows, nullptr);
    }
  }
}

void FeedbackDriver::LearnDpcHistograms(
    const std::vector<MonitoredExpr>& entries, const RunStatistics& stats) {
  for (const MonitorRecord& rec : stats.monitors) {
    for (const MonitoredExpr& e : entries) {
      if (e.label != rec.label || e.is_join || e.expr.empty()) continue;
      const int col = e.expr.atoms()[0].col();
      auto range = ExtractColumnRange(e.expr, col);
      if (!range.has_value() || range->atoms.size() != e.expr.size()) {
        continue;  // not a pure single-column range
      }
      if (rec.actual_cardinality <= 0) continue;
      dpc_histograms_.Observe(*e.table, col, range->lo, range->hi,
                              rec.actual_dpc, rec.actual_cardinality);
    }
  }
}

template <typename Query>
Result<FeedbackOutcome> FeedbackDriver::Run(const Query& query) {
  FeedbackOutcome out;
  if (options_.inject_accurate_cardinalities) {
    DPCF_RETURN_IF_ERROR(InjectCardinalities(query));
  }
  Optimizer opt(db_, stats_, &hints_, options_.cost_params,
                options_.learn_dpc_histograms ? &dpc_histograms_ : nullptr);

  DPCF_ASSIGN_OR_RETURN(auto before, Optimize(opt, query));
  out.plan_before = before.Describe();

  DPCF_ASSIGN_OR_RETURN(out.baseline_run,
                        Execute(before, query, nullptr, &out.count_result));
  std::vector<MonitoredExpr> entries;
  DPCF_ASSIGN_OR_RETURN(out.monitored_run, Execute(before, query, &entries));
  AttachEstimates(opt, entries, JoinOf(query), &out.monitored_run);
  out.feedback = out.monitored_run.monitors;
  error_tracker_.RecordAll(out.feedback);
  out.reoptimization_advised = drift_monitor_.ObserveAll(out.feedback);
  if (out.monitored_run.profile != nullptr) {
    out.annotated_plan = RenderAnnotatedPlan(
        *out.monitored_run.profile, out.feedback, options_.cost_params);
  }

  store_.RecordRun(out.monitored_run);
  store_.ApplyToHints(&hints_);
  if (options_.learn_dpc_histograms) {
    LearnDpcHistograms(entries, out.monitored_run);
  }

  DPCF_ASSIGN_OR_RETURN(auto after, Optimize(opt, query));
  out.plan_after = after.Describe();
  out.plan_changed = after.Signature() != before.Signature();

  DPCF_ASSIGN_OR_RETURN(out.improved_run, Execute(after, query, nullptr));

  out.time_before_ms = out.baseline_run.simulated_ms;
  out.time_after_ms = out.improved_run.simulated_ms;
  if (out.time_before_ms > 0) {
    out.speedup =
        (out.time_before_ms - out.time_after_ms) / out.time_before_ms;
    out.monitor_overhead =
        (out.monitored_run.simulated_ms - out.time_before_ms) /
        out.time_before_ms;
  }
  return out;
}

Result<FeedbackOutcome> FeedbackDriver::RunSingleTable(
    const SingleTableQuery& query) {
  return Run(query);
}

Result<FeedbackOutcome> FeedbackDriver::RunJoin(const JoinQuery& query) {
  return Run(query);
}

}  // namespace dpcf
