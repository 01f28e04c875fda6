// perfbench: the paper's feedback loop, end to end and layer by layer.
//
// One process, one client, closed loop: each workload's SQL queries are
// bound and sent one at a time through the unmodified
// FeedbackDriver::RunSingleTable / RunJoin (inject exact cardinalities →
// optimize → baseline run → monitored run → feed DPC back → re-plan →
// re-run), cycling over the query set until --seconds have elapsed and at
// least one full pass is done. Every loop is checked: OK status, COUNT
// equal to the exact oracle, and the IoStats invariant.
//
// --trace 0 reports the end-to-end metrics (no tracing anywhere).
// --trace 1 additionally replays every loop through TracedLoop below, a
// replica of the driver that calls each layer's public functions in the
// driver's order and times each call from this file. The replica must
// reproduce the driver's outcome query by query (plans, COUNT, simulated
// ms, monitor records), or the run fails. Spans stay in memory and are
// written to --spans at exit (Chrome trace-event JSON); the per-layer
// metrics and each layer's self time are computed from them.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/feedback_driver.h"
#include "core/monitor_manager.h"
#include "obs/metrics_registry.h"
#include "sql/binder.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace dpcf::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  bool join;
  int64_t rows;        // rows of T (and of T1 for joins)
  size_t pool_pages;   // buffer-pool capacity
  int scan_threads;    // MonitorOptions::scan_threads
  uint32_t prefetch;   // MonitorOptions::prefetch_pages (readahead window)
  int64_t latency_us;  // DiskManager::set_read_latency_us after set-up
  int queries;         // single table: per column C2..C5; join: total
  double min_sel, max_sel;
  uint64_t paper_seed;  // query seed of the paper's figure; --seed 0 uses it
};

// single_table: Fig 6. T (4,939 pages) does not fit the 4,096-page pool;
//   serial, no device latency: the loop is CPU-bound (scan kernels, scan
//   monitors, index seeks, the exact-cardinality oracle).
// join: Fig 8. Two 4,939-page tables against the same pool; the only
//   workload where hash build/probe, the bitvector filter, INL fetch
//   counting and the join oracle carry time.
// parallel_cold: the Fig 6 queries over a smaller T that the pool holds
//   whole, with a per-read device latency, two scan threads and readahead
//   on the engine-default miss path: wall time is I/O wait, so the miss
//   path, readahead and morsel parallelism decide it, not the kernels.
constexpr WorkloadSpec kWorkloads[] = {
    {"single_table", false, 400'000, 4096, 1, 0, 0, 25, 0.01, 0.10, 2008},
    {"join", true, 400'000, 4096, 1, 0, 0, 40, 0.005, 0.07, 1717},
    {"parallel_cold", false, 15'000, 4096, 2, 32, 200, 25, 0.01, 0.10, 2008},
};

// Set-ups per run, setup_s being their median: at least kMinSetups, and
// more while less than kMinSetupSeconds have gone into them (small tables
// build in milliseconds, where one build's noise is large), up to
// kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 2.0;
// Untimed loops before the measured phase (allocator and page-table warm-up).
constexpr int kWarmupLoops = 3;
// A run stops here even if its first pass is incomplete, so that a very
// slow host still gets a bounded run (run.py allows the process 170 s).
constexpr double kMaxRunSeconds = 140;

// Simulated plan-quality results of the default seed (--seed 0) at the
// default row counts: plans changed by feedback, the mean speedup, the
// largest monitor cost (MonitorOverhead) and the mean speedup per column
// C2..C5, all in percent. Simulated time is deterministic, so these are
// compared exactly: any change to a plan, a cost constant or a monitor
// fails the run loudly. single_table and join are Fig 6 and Fig 8.
struct Golden {
  const char* workload;
  int plans_changed;
  double speedup_mean_pct;
  double overhead_max_pct;
  double column_mean_pct[4];
};
constexpr Golden kGoldens[] = {
    {"single_table", 70, 30.224070639464571, 0.80638658172727995,
     {67.324730263688409, 33.290212079670994, 20.281340214498826, 0}},
    {"join", 29, 26.114388360017728, 0.28354672182323759,
     {33.591919142218721, 47.684410598993281, 23.181223698858872, 0}},
    {"parallel_cold", 70, 31.053769820971862, 0.7672634271099672,
     {66.141012787723781, 40.411989769820956, 17.662076726342711, 0}},
};

struct Env {
  std::unique_ptr<Database> db;
  Table* t = nullptr;
  Table* t1 = nullptr;
  StatisticsCatalog stats;
};

// Builds the tables, indexes and statistics: everything setup_s times.
std::unique_ptr<Env> BuildEnv(const WorkloadSpec& spec, int64_t rows) {
  auto env = std::make_unique<Env>();
  DatabaseOptions db_opts;
  db_opts.buffer_pool_pages = spec.pool_pages;
  env->db = std::make_unique<Database>(db_opts);
  SyntheticOptions opts;
  opts.num_rows = rows;
  opts.seed = 42;
  env->t = OrDie(BuildSyntheticTable(env->db.get(), "T", opts), "build T");
  if (!env->stats.BuildAll(env->db->disk(), *env->t).ok()) Die("stats T");
  if (spec.join) {
    SyntheticOptions o1 = opts;
    o1.seed = 4242;  // independent permutations
    o1.build_indexes = false;
    env->t1 = OrDie(BuildSyntheticTable(env->db.get(), "T1", o1), "build T1");
    OrDie(env->db->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true),
          "T1 clustered index");
    if (!env->stats.BuildAll(env->db->disk(), *env->t1).ok()) Die("stats T1");
  }
  return env;
}

struct QueryInput {
  std::string sql;
  int column = -1;
  BoundQuery bound;
  int64_t oracle_count = -1;
};

bool SameSelection(const Table* a, const Predicate& pa, const Table* b,
                   const Predicate& pb) {
  return a == b && SelPredKey(*a, pa) == SelPredKey(*b, pb);
}

// Share of its stratum a seeded query's selectivity may move around the
// stratum's centre (see Generate).
constexpr double kStratumJitter = 0.25;

// The workload's generated queries. --seed 0 is the paper's set: the Fig 6
// / Fig 8 generators with the figures' seeds, in the figures' order. Any
// other seed draws the same query shapes on a stratified grid:
// [min_sel, max_sel] is cut into equal strata, each stratum gets one query
// per column C2..C5 at a selectivity drawn uniformly from the middle
// kStratumJitter of the stratum, and the order is shuffled (so a partial
// last pass is a fair sample). Every seed's bounds differ, yet each seed
// exercises the same selectivity profile, so loop times and plan flips
// over a pass barely move between seeds; wholly uniform draws moved the
// join workload's median loop by a quarter.
template <typename Generated, typename GenerateFn>
std::vector<Generated> Generate(const WorkloadSpec& spec, uint64_t seed,
                                GenerateFn generate) {
  if (seed == 0) {
    return generate(spec.queries, spec.min_sel, spec.max_sel,
                    spec.paper_seed);
  }
  const int strata = spec.join ? spec.queries / 4 : spec.queries;
  const double width = (spec.max_sel - spec.min_sel) / strata;
  Rng rng(seed);
  std::vector<Generated> out;
  for (int s = 0; s < strata; ++s) {
    const double lo = spec.min_sel + width * (s + 0.5 - kStratumJitter / 2);
    // One query per column: per_column = 1, or a join count of 4.
    for (Generated& g : generate(spec.join ? 4 : 1, lo,
                                 lo + width * kStratumJitter, rng.Next())) {
      out.push_back(std::move(g));
    }
  }
  Shuffle(&out, &rng);
  return out;
}

// Generates the workload's queries from the seed, binds each one's SQL text
// and computes the exact COUNT by raw table walk (the oracle every loop is
// checked against). The engine only ever sees the SQL text.
std::vector<QueryInput> MakeQueries(const WorkloadSpec& spec, Env* env,
                                    uint64_t seed) {
  std::vector<QueryInput> out;
  Database* db = env->db.get();
  if (spec.join) {
    auto generate = [env](int count, double lo, double hi, uint64_t s) {
      return GenerateSyntheticJoinQueries(env->t, env->t1, count, lo, hi, s);
    };
    for (GeneratedJoinQuery& g :
         Generate<GeneratedJoinQuery>(spec, seed, generate)) {
      QueryInput q;
      q.sql = g.description;
      q.column = g.column;
      q.bound = OrDie(BindSql(*db, q.sql), "bind");
      const JoinQuery& b = q.bound.join;
      if (!q.bound.is_join || b.outer_col != g.query.outer_col ||
          b.inner_col != g.query.inner_col ||
          !SameSelection(b.outer_table, b.outer_pred, g.query.outer_table,
                         g.query.outer_pred) ||
          !SameSelection(b.inner_table, b.inner_pred, g.query.inner_table,
                         g.query.inner_pred)) {
        Die("binder changed the meaning of: " + q.sql);
      }
      q.oracle_count =
          OrDie(ExactJoinCardinality(db->disk(), g.query), "join oracle")
              .join_rows;
      out.push_back(std::move(q));
    }
  } else {
    auto generate = [env](int per_column, double lo, double hi, uint64_t s) {
      return GenerateSyntheticSingleTableQueries(env->t, per_column, lo, hi,
                                                 s);
    };
    for (GeneratedSingleQuery& g :
         Generate<GeneratedSingleQuery>(spec, seed, generate)) {
      QueryInput q;
      q.sql = g.description;
      q.column = g.column;
      q.bound = OrDie(BindSql(*db, q.sql), "bind");
      if (q.bound.is_join ||
          !SameSelection(q.bound.single.table, q.bound.single.pred,
                         g.query.table, g.query.pred)) {
        Die("binder changed the meaning of: " + q.sql);
      }
      q.oracle_count = ExactCardinality(db->disk(), *g.query.table,
                                        g.query.pred);
      out.push_back(std::move(q));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from this file around calls into each layer.

enum Layer { kBench, kSql, kOptimizer, kCore, kObs, kExec, kStorage, kLayers };
constexpr const char* kLayerNames[kLayers] = {
    "bench", "sql", "optimizer", "core", "obs", "exec", "storage"};

enum RunKind { kBaseline, kMonitored, kReplanned, kNoRun };
constexpr const char* kRunKindNames[] = {"baseline", "monitored",
                                         "replanned"};

struct Span {
  const char* name;
  Layer layer;
  int parent;  // index into Tracer::spans, -1 for a root
  int query;   // loop sequence number; spans of one loop share it
  int64_t start_ns;
  int64_t end_ns;
  RunKind run = kNoRun;        // exec.execute only
  const char* plan = nullptr;  // exec.execute only: plan kind
  bool index_plan = false;     // exec.execute only: index-driven plan
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  void set_query(int q) { query_ = q; }

  int Begin(Layer layer, const char* name) {
    spans_.push_back({name, layer, open_, query_, Now(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    spans_[id].end_ns = Now();
    open_ = spans_[id].parent;
  }
  Span& at(int id) { return spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  int query_ = 0;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(layer, name)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  Span& span() { return tracer_->at(id_); }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// TracedLoop: FeedbackDriver::RunSingleTable / RunJoin rebuilt from the
// layers' public functions, in the driver's order, with a span around each
// call. It owns the same per-session state as a driver (hints, feedback
// store, error tracker, drift monitor). Any divergence from the driver is
// caught by OutcomeDiff, query by query.

class TracedLoop {
 public:
  TracedLoop(Database* db, StatisticsCatalog* stats,
             const FeedbackRunOptions& options, Tracer* tracer)
      : db_(db),
        stats_(stats),
        options_(options),
        tracer_(tracer),
        drift_(options.drift) {
    drift_.AttachObservability(
        db_->options().observability.metrics ? db_->metrics() : nullptr,
        db_->journal());
  }

  void ClearFeedback() {
    hints_.Clear();
    store_.Clear();
  }

  // Page images the oracle walks read (IoStats::raw_page_reads deltas).
  int64_t inject_raw_pages() const { return inject_raw_pages_; }

  Result<FeedbackOutcome> RunSingleTable(const SingleTableQuery& query) {
    FeedbackOutcome out;
    if (options_.inject_accurate_cardinalities) {
      SpanScope s(tracer_, kCore, "core.inject");
      const int64_t raw0 = db_->disk()->io_stats()->raw_page_reads;
      DPCF_RETURN_IF_ERROR(
          InjectSelectionCardinalities(query.table, query.pred));
      inject_raw_pages_ += db_->disk()->io_stats()->raw_page_reads - raw0;
    }
    Optimizer opt(db_, stats_, &hints_, options_.cost_params, nullptr);
    AccessPathPlan before;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(before, opt.OptimizeSingleTable(query));
    }
    out.plan_before = before.Describe();
    DPCF_ASSIGN_OR_RETURN(out.baseline_run,
                          ExecuteSingle(before, query, kBaseline, nullptr,
                                        &out.count_result));
    std::vector<MonitoredExpr> entries;
    DPCF_ASSIGN_OR_RETURN(out.monitored_run,
                          ExecuteSingle(before, query, kMonitored, &entries,
                                        nullptr));
    DPCF_RETURN_IF_ERROR(Feedback(opt, entries, nullptr, &out));
    AccessPathPlan after;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(after, opt.OptimizeSingleTable(query));
    }
    out.plan_after = after.Describe();
    out.plan_changed = after.Signature() != before.Signature();
    DPCF_ASSIGN_OR_RETURN(out.improved_run,
                          ExecuteSingle(after, query, kReplanned, nullptr,
                                        nullptr));
    Finish(&out);
    return out;
  }

  Result<FeedbackOutcome> RunJoin(const JoinQuery& query) {
    FeedbackOutcome out;
    if (options_.inject_accurate_cardinalities) {
      SpanScope s(tracer_, kCore, "core.inject");
      const int64_t raw0 = db_->disk()->io_stats()->raw_page_reads;
      DPCF_RETURN_IF_ERROR(InjectSelectionCardinalities(query.outer_table,
                                                        query.outer_pred));
      DPCF_RETURN_IF_ERROR(InjectSelectionCardinalities(query.inner_table,
                                                        query.inner_pred));
      DPCF_ASSIGN_OR_RETURN(ExactJoinCardinalities exact,
                            ExactJoinCardinality(db_->disk(), query));
      hints_.SetCardinality(
          JoinPredKey(*query.outer_table, query.outer_col,
                      *query.inner_table, query.inner_col),
          static_cast<double>(exact.join_rows));
      inject_raw_pages_ += db_->disk()->io_stats()->raw_page_reads - raw0;
    }
    Optimizer opt(db_, stats_, &hints_, options_.cost_params, nullptr);
    JoinPlan before;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(before, opt.OptimizeJoin(query));
    }
    out.plan_before = before.Describe();
    DPCF_ASSIGN_OR_RETURN(out.baseline_run,
                          ExecuteJoin(before, query, kBaseline, nullptr,
                                      &out.count_result));
    std::vector<MonitoredExpr> entries;
    DPCF_ASSIGN_OR_RETURN(out.monitored_run,
                          ExecuteJoin(before, query, kMonitored, &entries,
                                      nullptr));
    DPCF_RETURN_IF_ERROR(Feedback(opt, entries, &query, &out));
    JoinPlan after;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.optimize");
      DPCF_ASSIGN_OR_RETURN(after, opt.OptimizeJoin(query));
    }
    out.plan_after = after.Describe();
    out.plan_changed = after.Signature() != before.Signature();
    DPCF_ASSIGN_OR_RETURN(out.improved_run,
                          ExecuteJoin(after, query, kReplanned, nullptr,
                                      nullptr));
    Finish(&out);
    return out;
  }

 private:
  // Same expressions, same order as the driver's private helper.
  Status InjectSelectionCardinalities(Table* table, const Predicate& pred) {
    if (pred.empty()) return Status::OK();
    DiskManager* disk = db_->disk();
    hints_.SetCardinality(
        SelPredKey(*table, pred),
        static_cast<double>(ExactCardinality(disk, *table, pred)));
    std::vector<Predicate> sargables;
    for (Index* index : db_->catalog().IndexesForTable(table)) {
      auto range = BuildIndexRange(pred, index);
      if (!range.has_value()) continue;
      std::string key = SelPredKey(*table, range->sargable);
      if (!hints_.Cardinality(key).has_value()) {
        hints_.SetCardinality(
            key, static_cast<double>(
                     ExactCardinality(disk, *table, range->sargable)));
      }
      if (!index->is_clustered_key()) sargables.push_back(range->sargable);
    }
    for (size_t i = 0; i < sargables.size(); ++i) {
      for (size_t j = i + 1; j < sargables.size(); ++j) {
        Predicate combined = sargables[i];
        for (const PredicateAtom& a : sargables[j].atoms()) combined.Add(a);
        std::string key = SelPredKey(*table, combined);
        if (!hints_.Cardinality(key).has_value()) {
          hints_.SetCardinality(
              key, static_cast<double>(
                       ExactCardinality(disk, *table, combined)));
        }
      }
    }
    return Status::OK();
  }

  void AttachObservability(ExecContext* ctx) {
    ctx->set_trace(db_->trace());
    ctx->set_profiling(options_.profile_operators);
    ctx->set_query_id(++query_id_);
    if (db_->options().observability.metrics) {
      ctx->set_metrics(db_->metrics());
    }
    ctx->set_journal(db_->journal());
  }

  PlanMonitorHooks BaseHooks() const {
    PlanMonitorHooks hooks;
    hooks.scan_sample_fraction = options_.monitor.scan_sample_fraction;
    hooks.seed = options_.monitor.seed;
    hooks.vectorized_scan = options_.monitor.vectorized_scan;
    return hooks;
  }

  Status ColdCache() {
    SpanScope s(tracer_, kStorage, "storage.cold_cache");
    return db_->ColdCache();
  }

  Result<RunStatistics> Execute(Operator* root, ExecContext* ctx,
                                RunKind run, const char* plan,
                                bool index_plan,
                                int64_t* count_result) {
    SpanScope s(tracer_, kExec, "exec.execute");
    s.span().run = run;
    s.span().plan = plan;
    s.span().index_plan = index_plan;
    DPCF_ASSIGN_OR_RETURN(RunResult result,
                          ExecutePlan(root, ctx, options_.cost_params));
    if (count_result != nullptr) {
      *count_result = result.output.empty() || result.output[0].empty()
                          ? -1
                          : result.output[0][0].AsInt64();
    }
    return result.stats;
  }

  Result<RunStatistics> ExecuteSingle(const AccessPathPlan& path,
                                      const SingleTableQuery& query,
                                      RunKind run,
                                      std::vector<MonitoredExpr>* entries,
                                      int64_t* count_result) {
    DPCF_RETURN_IF_ERROR(ColdCache());
    ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
    AttachObservability(&ctx);
    PlanMonitorHooks hooks = BaseHooks();
    if (run == kMonitored) {
      SpanScope s(tracer_, kCore, "core.monitor_setup");
      MonitorManager mm(db_, options_.monitor);
      DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih,
                            mm.ForSingleTable(path, query));
      hooks = std::move(ih.hooks);
      *entries = std::move(ih.entries);
    }
    OperatorPtr root;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.lower");
      DPCF_ASSIGN_OR_RETURN(root, BuildSingleTableExec(path, query, hooks));
    }
    return Execute(root.get(), &ctx, run, AccessKindName(path.kind),
                   path.kind != AccessKind::kTableScan, count_result);
  }

  Result<RunStatistics> ExecuteJoin(const JoinPlan& plan,
                                    const JoinQuery& query, RunKind run,
                                    std::vector<MonitoredExpr>* entries,
                                    int64_t* count_result) {
    DPCF_RETURN_IF_ERROR(ColdCache());
    ExecContext ctx(db_->buffer_pool(), options_.exec_seed);
    AttachObservability(&ctx);
    PlanMonitorHooks hooks = BaseHooks();
    if (run == kMonitored) {
      SpanScope s(tracer_, kCore, "core.monitor_setup");
      MonitorManager mm(db_, options_.monitor);
      DPCF_ASSIGN_OR_RETURN(InstrumentedHooks ih,
                            mm.ForJoin(plan, query, &ctx));
      hooks = std::move(ih.hooks);
      *entries = std::move(ih.entries);
    }
    OperatorPtr root;
    {
      SpanScope s(tracer_, kOptimizer, "optimizer.lower");
      DPCF_ASSIGN_OR_RETURN(root, BuildJoinExec(plan, query, hooks));
    }
    return Execute(root.get(), &ctx, run, JoinMethodName(plan.method),
                   plan.method == JoinMethod::kIndexNestedLoops,
                   count_result);
  }

  // Estimates onto the monitor records, diagnosis, then the feedback that
  // re-planning reads (the driver's steps between the monitored run and
  // the second optimize).
  Status Feedback(const Optimizer& opt,
                  const std::vector<MonitoredExpr>& entries,
                  const JoinQuery* join_query, FeedbackOutcome* out) {
    {
      SpanScope s(tracer_, kCore, "core.attach_estimates");
      AttachEstimates(opt, entries, join_query, &out->monitored_run);
    }
    out->feedback = out->monitored_run.monitors;
    {
      SpanScope s(tracer_, kObs, "obs.diagnose");
      error_tracker_.RecordAll(out->feedback);
      out->reoptimization_advised = drift_.ObserveAll(out->feedback);
    }
    SpanScope s(tracer_, kCore, "core.feedback");
    store_.RecordRun(out->monitored_run);
    store_.ApplyToHints(&hints_);
    return Status::OK();
  }

  static void AttachEstimates(const Optimizer& opt,
                              const std::vector<MonitoredExpr>& entries,
                              const JoinQuery* jq, RunStatistics* stats) {
    for (MonitorRecord& rec : stats->monitors) {
      auto it = std::find_if(
          entries.begin(), entries.end(),
          [&rec](const MonitoredExpr& e) { return e.label == rec.label; });
      if (it == entries.end()) continue;
      if (it->is_join && jq != nullptr) {
        double outer_rows = opt.cardinality().EstimateRows(*jq->outer_table,
                                                           jq->outer_pred);
        double semi_est = opt.cardinality().EstimateJoinRows(
            *jq->outer_table, outer_rows, jq->outer_col, *jq->inner_table,
            static_cast<double>(jq->inner_table->row_count()),
            jq->inner_col);
        semi_est = std::min(
            semi_est, static_cast<double>(jq->inner_table->row_count()));
        rec.estimated_cardinality = semi_est;
        rec.estimated_dpc = opt.EstimateJoinDpc(*jq, semi_est, nullptr);
      } else {
        double est_rows = opt.cardinality().EstimateRows(*it->table, it->expr);
        rec.estimated_cardinality = est_rows;
        rec.estimated_dpc =
            opt.EstimateDpc(*it->table, it->expr, est_rows, nullptr);
      }
    }
  }

  static void Finish(FeedbackOutcome* out) {
    out->time_before_ms = out->baseline_run.simulated_ms;
    out->time_after_ms = out->improved_run.simulated_ms;
    if (out->time_before_ms > 0) {
      out->speedup =
          (out->time_before_ms - out->time_after_ms) / out->time_before_ms;
      out->monitor_overhead =
          (out->monitored_run.simulated_ms - out->time_before_ms) /
          out->time_before_ms;
    }
  }

  Database* db_;
  StatisticsCatalog* stats_;
  FeedbackRunOptions options_;
  Tracer* tracer_;
  OptimizerHints hints_;
  FeedbackStore store_;
  EstimationErrorTracker error_tracker_;
  DriftMonitor drift_;
  uint64_t query_id_ = uint64_t{1} << 40;  // disjoint from the driver's ids
  int64_t inject_raw_pages_ = 0;
};

// ---------------------------------------------------------------------------
// Checks

// The simulated cost the monitors add to the plan: the monitored run's CPU
// counters priced over the baseline run's I/O, as a share of T. Serial
// monitoring reads exactly the baseline's pages, so this equals
// FeedbackOutcome::monitor_overhead there (CheckLoop verifies it). With
// several scan threads and readahead the monitored run's I/O depends on
// thread interleaving, and this keeps that schedule out of the figure.
double MonitorOverhead(const FeedbackOutcome& o) {
  const double t = o.baseline_run.simulated_ms;
  if (t <= 0) return 0;
  return (SimulatedMillis(o.baseline_run.io, o.monitored_run.cpu) - t) / t;
}

// Empty when `got` reproduces `want`; otherwise the first difference.
// `monitored_sim_exact` is false when the monitored run is scanned by
// several threads, whose interleaving moves the sequential/random read
// classification and hence its simulated time.
std::string OutcomeDiff(const FeedbackOutcome& want,
                        const FeedbackOutcome& got,
                        bool monitored_sim_exact) {
  auto differ = [](const char* what, const std::string& a,
                   const std::string& b) {
    return StrFormat("%s: %s vs %s", what, a.c_str(), b.c_str());
  };
  auto num = [](double v) { return StrFormat("%.17g", v); };
  if (want.plan_before != got.plan_before) {
    return differ("plan before", want.plan_before, got.plan_before);
  }
  if (want.plan_after != got.plan_after) {
    return differ("plan after", want.plan_after, got.plan_after);
  }
  if (want.count_result != got.count_result) {
    return differ("COUNT", num(want.count_result), num(got.count_result));
  }
  if (want.baseline_run.simulated_ms != got.baseline_run.simulated_ms) {
    return differ("baseline sim ms", num(want.baseline_run.simulated_ms),
                  num(got.baseline_run.simulated_ms));
  }
  if (monitored_sim_exact &&
      want.monitored_run.simulated_ms != got.monitored_run.simulated_ms) {
    return differ("monitored sim ms", num(want.monitored_run.simulated_ms),
                  num(got.monitored_run.simulated_ms));
  }
  if (MonitorOverhead(want) != MonitorOverhead(got)) {
    return differ("monitor cost", num(MonitorOverhead(want)),
                  num(MonitorOverhead(got)));
  }
  if (want.improved_run.simulated_ms != got.improved_run.simulated_ms) {
    return differ("replanned sim ms", num(want.improved_run.simulated_ms),
                  num(got.improved_run.simulated_ms));
  }
  if (want.feedback.size() != got.feedback.size()) {
    return differ("monitor records", num(want.feedback.size()),
                  num(got.feedback.size()));
  }
  for (size_t i = 0; i < want.feedback.size(); ++i) {
    const MonitorRecord& a = want.feedback[i];
    const MonitorRecord& b = got.feedback[i];
    if (a.label != b.label) return differ("record label", a.label, b.label);
    if (a.actual_dpc != b.actual_dpc) {
      return differ(("actual DPC of " + a.label).c_str(), num(a.actual_dpc),
                    num(b.actual_dpc));
    }
  }
  return "";
}

// The exact I/O accounting invariant: every logical read was a hit or one
// physical read, and no prefetched load was demanded more often than it
// was issued. Without readahead no prefetch may be charged at all.
bool IoInvariantHolds(const IoStats& io, bool readahead) {
  const int64_t prefetch_reads = io.prefetch_reads;
  return static_cast<int64_t>(io.logical_reads) ==
             static_cast<int64_t>(io.buffer_hits) + io.physical_reads() &&
         static_cast<int64_t>(io.prefetch_hits) <= prefetch_reads &&
         (readahead || prefetch_reads == 0);
}

// Empty when the loop's result is correct. `serial` says the monitored run
// was scanned by one thread without readahead.
std::string CheckLoop(const Result<FeedbackOutcome>& r, const QueryInput& q,
                      Database* db, bool readahead, bool serial) {
  if (!r.ok()) return "status " + r.status().ToString();
  const FeedbackOutcome& out = r.value();
  if (out.count_result != q.oracle_count) {
    return StrFormat("COUNT %lld, oracle %lld",
                     static_cast<long long>(out.count_result),
                     static_cast<long long>(q.oracle_count));
  }
  if (serial && MonitorOverhead(out) != out.monitor_overhead) {
    return StrFormat("monitored run read other pages than the baseline: "
                     "overhead %.17g vs %.17g",
                     out.monitor_overhead, MonitorOverhead(out));
  }
  for (const RunStatistics* run :
       {&out.baseline_run, &out.monitored_run, &out.improved_run}) {
    if (!IoInvariantHolds(run->io, readahead)) {
      return "IoStats invariant broken in a run: " + run->io.ToString();
    }
  }
  if (!IoInvariantHolds(*db->disk()->io_stats(), readahead)) {
    return "IoStats invariant broken: " + db->disk()->io_stats()->ToString();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Statistics

// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

// The highest percentile with at least ten samples beyond it: the 11th
// largest sample, i.e. percentile 100 * (1 - 10 / n) (the largest sample
// when there are fewer than 11). Continuous in n, so runs whose loop
// counts differ a little report the same point of the distribution.
double TailSample(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(), std::greater<>());
  return v[std::min<size_t>(10, v.size() - 1)];
}

// Bucket counts of one registry histogram, for before/after deltas.
struct HistogramDelta {
  const LogHistogram* h = nullptr;
  std::vector<int64_t> base;
  std::vector<int64_t> acc;

  explicit HistogramDelta(const LogHistogram* hist)
      : h(hist), base(hist->num_buckets() + 1), acc(base.size()) {}

  int64_t Bucket(size_t i) const {
    return i < h->num_buckets() ? h->bucket_count(i) : h->overflow_count();
  }
  void Mark() {
    for (size_t i = 0; i < base.size(); ++i) base[i] = Bucket(i);
  }
  void Accumulate() {
    for (size_t i = 0; i < base.size(); ++i) acc[i] += Bucket(i) - base[i];
  }
  // Quantile of the accumulated deltas, interpolated inside the covering
  // bucket (overflow clamps to the last bound); 0 when nothing was seen.
  double Quantile(double q) const {
    int64_t total = 0;
    for (int64_t c : acc) total += c;
    if (total == 0) return 0;
    const double rank = q * static_cast<double>(total);
    double seen = 0;
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      const double lo = i == 0 ? 0 : h->bucket_bound(i - 1);
      const double c = static_cast<double>(acc[i]);
      if (c > 0 && seen + c >= rank) {
        return lo + (h->bucket_bound(i) - lo) * (rank - seen) / c;
      }
      seen += c;
    }
    return h->bucket_bound(h->num_buckets() - 1);
  }
};

// Registry-side storage counters, sampled around each traced loop only.
// (The ring's disk_queue_wait_us / disk_service_time_us histograms are fed
// by the async submission ring alone, so every workload here, on the
// engine-default synchronous miss path, would read a constant 0.)
class StorageProbe {
 public:
  explicit StorageProbe(Database* db)
      // Already registered by the storage layer; geometry args are ignored.
      : miss_read_(db->metrics()->GetHistogram("buffer_pool_miss_read_us",
                                               "", 1.0, 2.0, 20)) {
    MetricsRegistry* m = db->metrics();
    for (size_t s = 0; s < db->buffer_pool()->num_shards(); ++s) {
      loading_waits_.push_back(
          m->GetCounter("buffer_pool_loading_waits_total", "",
                        {{"shard", StrFormat("%zu", s)}}));
    }
  }

  void Mark() {
    miss_read_.Mark();
    waits_base_ = LoadingWaits();
  }
  void Accumulate() {
    miss_read_.Accumulate();
    waits_ += LoadingWaits() - waits_base_;
  }

  int64_t loading_waits() const { return waits_; }
  const HistogramDelta& miss_read() const { return miss_read_; }

 private:
  int64_t LoadingWaits() const {
    int64_t n = 0;
    for (const Counter* c : loading_waits_) n += c->value();
    return n;
  }

  HistogramDelta miss_read_;
  std::vector<const Counter*> loading_waits_;
  int64_t waits_base_ = 0;
  int64_t waits_ = 0;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                      metrics[i].unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool WriteSpans(const std::string& path, const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"query\": %d",
                 i == 0 ? "" : ",\n", s.name, kLayerNames[s.layer],
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.query);
    if (s.run != kNoRun) {
      std::fprintf(f, ", \"run\": \"%s\", \"plan\": \"%s\"",
                   kRunKindNames[s.run], s.plan);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  int64_t rows = 0;  // 0: the workload's row count
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--rows") {
      a.rows = std::atoll(v);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return a;
}

// The traced replay of one loop: bind the SQL text, then the replica.
Result<FeedbackOutcome> TracedQuery(Tracer* tracer, TracedLoop* loop,
                                    Database* db, const std::string& sql) {
  SpanScope root(tracer, kBench, "query");
  Result<BoundQuery> bound = Status::Internal("unbound");
  {
    SpanScope s(tracer, kSql, "sql.bind");
    bound = BindSql(*db, sql);
  }
  if (!bound.ok()) return bound.status();
  SpanScope s(tracer, kBench, "loop");
  return bound->is_join ? loop->RunJoin(bound->join)
                        : loop->RunSingleTable(bound->single);
}

// I/O and CPU counters summed over the traced runs of the measured phase.
struct TracedTotals {
  IoStats io;
  CpuStats cpu;
  std::vector<double> monitor_records;  // per monitored run
  int64_t loops = 0;
};

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  const bool default_scale = args.rows == 0;
  const int64_t rows = default_scale ? spec->rows : args.rows;

  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (Sum(setup_s) < kMinSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = BuildEnv(*spec, rows);
    setup_s.push_back(SecondsSince(t0));
  }
  Database* db = env->db.get();
  std::printf("workload %s seed %llu: T %lld rows / %u pages, pool %zu "
              "pages, scan threads %d, readahead %u, latency %lld us; "
              "%zu set-ups\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<long long>(env->t->row_count()),
              env->t->page_count(), spec->pool_pages, spec->scan_threads,
              spec->prefetch, static_cast<long long>(spec->latency_us),
              setup_s.size());

  const std::vector<QueryInput> queries = MakeQueries(*spec, env.get(),
                                                      args.seed);
  db->disk()->set_read_latency_us(spec->latency_us);

  FeedbackRunOptions options;
  // Each query is optimized independently (the paper's methodology), so
  // cross-query DPC-histogram learning stays off.
  options.learn_dpc_histograms = false;
  options.monitor.scan_threads = spec->scan_threads;
  options.monitor.prefetch_pages = spec->prefetch;
  FeedbackDriver driver(db, &env->stats, options);
  const bool readahead = spec->prefetch > 0;
  const bool monitored_sim_exact = spec->scan_threads == 1 && !readahead;

  Tracer tracer;
  TracedLoop traced(db, &env->stats, options, &tracer);
  StorageProbe probe(db);

  const int n = static_cast<int>(queries.size());
  std::vector<std::optional<FeedbackOutcome>> first(n);
  int64_t attempted = 0, failed = 0;
  TracedTotals totals;

  // One closed-loop iteration for query q, checked; returns the wall ms of
  // the driver call. In trace mode the replica replays it right after.
  auto run_once = [&](int q, bool measured) {
    const QueryInput& in = queries[q];
    ++attempted;
    driver.hints()->Clear();
    driver.store()->Clear();
    const Clock::time_point t0 = Clock::now();
    Result<FeedbackOutcome> r = in.bound.is_join
                                    ? driver.RunJoin(in.bound.join)
                                    : driver.RunSingleTable(in.bound.single);
    const double driver_ms = SecondsSince(t0) * 1e3;
    std::string err = CheckLoop(r, in, db, readahead, monitored_sim_exact);
    if (err.empty()) {
      if (!first[q].has_value()) {
        first[q] = r.value();
      } else {
        err = OutcomeDiff(*first[q], r.value(), monitored_sim_exact);
        if (!err.empty()) err = "not repeatable: " + err;
      }
    }
    if (err.empty() && args.trace) {
      tracer.set_query(static_cast<int>(attempted));
      traced.ClearFeedback();
      probe.Mark();
      Result<FeedbackOutcome> t = TracedQuery(&tracer, &traced, db, in.sql);
      probe.Accumulate();
      err = CheckLoop(t, in, db, readahead, monitored_sim_exact);
      if (err.empty()) err = OutcomeDiff(*r, *t, monitored_sim_exact);
      if (!err.empty()) {
        err = "traced replica: " + err;
      } else if (measured) {
        for (const RunStatistics* run :
             {&t->baseline_run, &t->monitored_run, &t->improved_run}) {
          totals.io += run->io;
          totals.cpu += run->cpu;
        }
        totals.monitor_records.push_back(
            static_cast<double>(t->feedback.size()));
        ++totals.loops;
      }
    }
    if (!err.empty()) {
      ++failed;
      std::fprintf(stderr, "loop %lld (%s) failed: %s\n",
                   static_cast<long long>(attempted), in.sql.c_str(),
                   err.c_str());
    }
    return driver_ms;
  };

  for (int i = 0; i < std::min(kWarmupLoops, n); ++i) run_once(i, false);
  const size_t warm_spans = tracer.spans().size();
  const int64_t warm_raw_pages = traced.inject_raw_pages();
  std::vector<double> loop_ms;  // driver wall ms of each measured loop
  const Clock::time_point start = Clock::now();
  while (true) {
    const double elapsed = SecondsSince(start);
    const int64_t done = static_cast<int64_t>(loop_ms.size());
    if ((elapsed >= args.seconds && done >= n) || elapsed >= kMaxRunSeconds) {
      break;
    }
    loop_ms.push_back(run_once(static_cast<int>(done % n), true));
  }
  const int64_t done = static_cast<int64_t>(loop_ms.size());
  const double measured_s = SecondsSince(start);
  if (done < n) {
    ++failed;
    std::fprintf(stderr, "first pass incomplete after %.0f s\n",
                 kMaxRunSeconds);
  }
  std::printf("measured %.3f s: %lld loops, %lld passes; median loop ms by "
              "pass:",
              measured_s, static_cast<long long>(done),
              static_cast<long long>(done / n));
  for (int64_t p = 0; p * n < done; ++p) {
    std::printf(" %.2f", Median(std::vector<double>(
                             loop_ms.begin() + p * n,
                             loop_ms.begin() + std::min(done, (p + 1) * n))));
  }
  std::printf("\n");

  // Simulated plan quality over the first full pass, in query order.
  int changed = 0;
  std::vector<double> speedups;
  double overhead_max = -INFINITY;
  std::map<int, std::vector<double>> by_column;
  for (int q = 0; q < n; ++q) {
    if (!first[q].has_value()) continue;
    changed += first[q]->plan_changed;
    speedups.push_back(first[q]->speedup);
    overhead_max = std::max(overhead_max, MonitorOverhead(*first[q]));
    by_column[queries[q].column].push_back(first[q]->speedup);
  }
  const double speedup_mean_pct = Mean(speedups) * 100;
  const double overhead_max_pct = overhead_max * 100;
  std::printf("plans changed %d/%d; sim speedup mean %.17g%%, monitor "
              "overhead max %.17g%%\n",
              changed, n, speedup_mean_pct, overhead_max_pct);
  std::vector<double> column_mean_pct;
  for (const auto& [col, s] : by_column) {
    column_mean_pct.push_back(Mean(s) * 100);
    std::printf("  %s mean speedup %.17g%% over %zu queries\n",
                env->t->schema().column(static_cast<size_t>(col)).name.c_str(),
                column_mean_pct.back(), s.size());
  }

  bool goldens_ok = true;
  if (args.seed == 0 && default_scale) {
    for (const Golden& g : kGoldens) {
      if (args.workload != g.workload) continue;
      auto check = [&](const char* what, double want, double got) {
        if (want == got) return;
        goldens_ok = false;
        std::fprintf(stderr, "GOLDEN MISMATCH %s: want %.17g, got %.17g\n",
                     what, want, got);
      };
      check("plans changed", g.plans_changed, changed);
      check("sim speedup mean pct", g.speedup_mean_pct, speedup_mean_pct);
      check("sim monitor overhead max pct", g.overhead_max_pct,
            overhead_max_pct);
      check("columns", 4, static_cast<double>(column_mean_pct.size()));
      for (size_t c = 0; c < 4 && c < column_mean_pct.size(); ++c) {
        check("column mean speedup pct", g.column_mean_pct[c],
              column_mean_pct[c]);
      }
    }
    std::printf("goldens %s\n", goldens_ok ? "match" : "DIFFER");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("loop_ms_tail is p%.2f of %zu loops (10 beyond it)\n",
                100.0 * (1 - 10.0 / static_cast<double>(done)),
                loop_ms.size());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"loop_ms_p50", Median(loop_ms), "ms"},
        {"loop_ms_tail", TailSample(loop_ms), "ms"},
        {"queries_per_s",
         static_cast<double>(loop_ms.size()) / (Sum(loop_ms) / 1e3), "1/s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"query_ok_ratio",
         attempted == 0 ? 0
                        : static_cast<double>(attempted - failed) /
                              static_cast<double>(attempted),
         "ratio"},
        {"sim_speedup_mean_pct", speedup_mean_pct, "%"},
        {"sim_monitor_overhead_max_pct", overhead_max_pct, "%"},
    };
  } else {
    // Per-layer metrics from the spans of the measured phase.
    std::vector<Span> spans(tracer.spans().begin() + warm_spans,
                            tracer.spans().end());
    for (Span& s : spans) s.parent -= static_cast<int>(warm_spans);
    std::map<std::string, std::vector<double>> us;  // span name -> µs
    std::vector<double> run_ms[3];
    std::map<std::string, std::vector<double>> plan_ms;  // by plan kind
    std::vector<double> class_ms[2];  // scan-driven, index-driven plans
    std::vector<double> loop_traced_ms;
    double layer_self_ns[kLayers] = {};
    double root_ns = 0;
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<int, std::pair<double, double>> monitored_vs_base;  // per loop
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      layer_self_ns[s.layer] += ns - child_ns[i];
      if (s.parent < 0) root_ns += ns;
      us[s.name].push_back(ns / 1e3);
      if (s.run != kNoRun) {
        run_ms[s.run].push_back(ns / 1e6);
        plan_ms[s.plan].push_back(ns / 1e6);
        class_ms[s.index_plan].push_back(ns / 1e6);
        if (s.run == kBaseline) monitored_vs_base[s.query].first = ns;
        if (s.run == kMonitored) monitored_vs_base[s.query].second = ns;
      }
      if (std::strcmp(s.name, "loop") == 0) loop_traced_ms.push_back(ns / 1e6);
    }
    std::vector<double> overhead_pct;
    for (const auto& [q, bm] : monitored_vs_base) {
      if (bm.first > 0) {
        overhead_pct.push_back((bm.second / bm.first - 1) * 100);
      }
    }
    const IoStats& io = totals.io;
    const CpuStats& cpu = totals.cpu;
    const double nloops =
        static_cast<double>(std::max<int64_t>(1, totals.loops));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double traced_p50 = Median(loop_traced_ms);
    const double driver_p50 = Median(loop_ms);
    std::printf("spans: %zu in the measured phase; exec runs by plan:",
                spans.size());
    for (const auto& [plan, v] : plan_ms) {
      std::printf(" %s=%zu", plan.c_str(), v.size());
    }
    std::printf("\nprefetch: %lld useful of %lld reads\n",
                static_cast<long long>(io.prefetch_hits),
                static_cast<long long>(io.prefetch_reads));
    metrics = {
        {"sql.bind_us_p50", Median(us["sql.bind"]), "us"},
        {"optimizer.optimize_us_p50", Median(us["optimizer.optimize"]), "us"},
        {"optimizer.lower_us_p50", Median(us["optimizer.lower"]), "us"},
        {"core.inject_ms_p50", Median(us["core.inject"]) / 1e3, "ms"},
        {"core.inject_raw_pages",
         static_cast<double>(traced.inject_raw_pages() - warm_raw_pages) /
             nloops,
         "pages/loop"},
        {"core.monitor_setup_us_p50", Median(us["core.monitor_setup"]), "us"},
        {"core.monitor_records", Mean(totals.monitor_records), "records/run"},
        {"core.feedback_us_p50", Median(us["core.feedback"]), "us"},
        {"obs.diagnose_us_p50", Median(us["obs.diagnose"]), "us"},
        {"exec.baseline_ms_p50", Median(run_ms[kBaseline]), "ms"},
        {"exec.monitored_ms_p50", Median(run_ms[kMonitored]), "ms"},
        {"exec.replanned_ms_p50", Median(run_ms[kReplanned]), "ms"},
        {"exec.scan_plan_ms_p50", Median(class_ms[0]), "ms"},
        {"exec.index_plan_ms_p50", Median(class_ms[1]), "ms"},
        {"exec.monitor_overhead_wall_pct", Median(overhead_pct), "%"},
        {"exec.atom_evals_per_row",
         ratio(static_cast<double>(cpu.predicate_atom_evals),
               static_cast<double>(cpu.rows_processed)),
         "ratio"},
        {"storage.cold_cache_us_p50", Median(us["storage.cold_cache"]), "us"},
        {"storage.physical_reads",
         static_cast<double>(io.physical_reads()) / nloops, "pages/loop"},
        {"storage.rand_reads",
         static_cast<double>(io.physical_rand_reads) / nloops, "pages/loop"},
        {"storage.hit_ratio",
         ratio(static_cast<double>(io.buffer_hits),
               static_cast<double>(io.logical_reads)),
         "ratio"},
        {"storage.prefetch_useful_ratio",
         ratio(static_cast<double>(io.prefetch_hits),
               static_cast<double>(io.prefetch_reads)),
         "ratio"},
        {"storage.prefetch_hits",
         static_cast<double>(io.prefetch_hits) / nloops, "pages/loop"},
        {"storage.prefetch_reads",
         static_cast<double>(io.prefetch_reads) / nloops, "pages/loop"},
        {"storage.loading_waits",
         static_cast<double>(probe.loading_waits()) / nloops, "waits/loop"},
        {"storage.miss_read_us_p50", probe.miss_read().Quantile(0.5), "us"},
        {"trace.loop_ms_p50", traced_p50, "ms"},
        {"trace.overhead_pct", ratio(traced_p50 - driver_p50, driver_p50) * 100,
         "%"},
    };
    for (int l = 0; l < kLayers; ++l) {
      metrics.push_back({StrFormat("self.%s_ms", kLayerNames[l]),
                         layer_self_ns[l] / 1e6 / nloops, "ms/loop"});
      metrics.push_back({StrFormat("self.%s_pct", kLayerNames[l]),
                         ratio(layer_self_ns[l], root_ns) * 100, "%"});
    }
    if (!args.spans.empty() && !WriteSpans(args.spans, tracer)) {
      Die("cannot write spans to " + args.spans);
    }
  }
  PrintResult(failed == 0 && goldens_ok, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace dpcf::perfbench

int main(int argc, char** argv) {
  return dpcf::perfbench::Run(dpcf::perfbench::ParseArgs(argc, argv));
}
