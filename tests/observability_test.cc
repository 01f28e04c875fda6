// The observability layer end to end: metrics registry semantics and
// exposition, trace collection on/off, q-error tracking, per-operator
// profiles with annotated-plan rendering, and the buffer pool's
// prefetch-hit accounting.

#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/monitor_manager.h"
#include "exec/executor.h"
#include "exec/parallel_scan.h"
#include "exec/scan_ops.h"
#include "obs/estimation_error_tracker.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/op_profile.h"
#include "obs/trace_collector.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

using testing::SyntheticDbTest;

// ------------------------------------------------------------ MetricsRegistry

TEST(MetricsRegistryTest, FindOrCreateIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "help");
  Counter* b = reg.GetCounter("x_total", "ignored on re-registration");
  EXPECT_EQ(a, b);
  a->Increment();
  a->Increment(4);
  EXPECT_EQ(b->value(), 5);

  // Distinct label sets are distinct children of the same family.
  Counter* s0 = reg.GetCounter("y_total", "h", {{"shard", "0"}});
  Counter* s1 = reg.GetCounter("y_total", "h", {{"shard", "1"}});
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0, reg.GetCounter("y_total", "h", {{"shard", "0"}}));
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("latency_us", "h");
  g->Set(4.0);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(MetricsRegistryTest, LogHistogramBucketsAndOverflow) {
  MetricsRegistry reg;
  // Bounds 1, 2, 4, 8; everything above 8 overflows.
  LogHistogram* h = reg.GetHistogram("read_us", "h", 1.0, 2.0, 4);
  h->Observe(0.5);  // bucket 0 (<= 1)
  h->Observe(3.0);  // bucket 2 (2, 4]
  h->Observe(4.0);  // bucket 2 inclusive upper bound
  h->Observe(100);  // overflow
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 107.5);
  EXPECT_EQ(h->bucket_count(0), 1);
  EXPECT_EQ(h->bucket_count(1), 0);
  EXPECT_EQ(h->bucket_count(2), 2);
  EXPECT_EQ(h->overflow_count(), 1);
  // First registration wins the geometry; the re-registration resolves the
  // same child.
  EXPECT_EQ(h, reg.GetHistogram("read_us", "h", 5.0, 10.0, 2));
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total", "Requests served", {{"shard", "3"}})
      ->Increment(7);
  reg.GetGauge("latency_us", "Configured latency")->Set(2000);
  reg.GetHistogram("wait_us", "Wait time", 1.0, 2.0, 2)->Observe(1.5);

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP requests_total Requests served"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total{shard=\"3\"} 7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE latency_us gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wait_us histogram"), std::string::npos);
  // Histogram exposition carries cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("wait_us_bucket{le=\"+Inf\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_us_count 1"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, LogHistogramQuantiles) {
  MetricsRegistry reg;
  // Bounds 1, 2, 4, 8, 16.
  LogHistogram* h = reg.GetHistogram("q_us", "h", 1.0, 2.0, 5);
  EXPECT_EQ(h->Quantile(0.5), 0.0);  // empty histogram
  for (int i = 0; i < 100; ++i) h->Observe(1.5);  // all in bucket (1, 2]
  // Every rank interpolates inside the covering bucket.
  EXPECT_GT(h->Quantile(0.5), 1.0);
  EXPECT_LE(h->Quantile(0.5), 2.0);
  EXPECT_LT(h->Quantile(0.05), h->Quantile(0.95));
  // Overflow observations clamp to the last bound.
  LogHistogram* o = reg.GetHistogram("o_us", "h", 1.0, 2.0, 2);
  o->Observe(100.0);
  EXPECT_DOUBLE_EQ(o->Quantile(0.99), 2.0);

  // Prometheus exposition carries summary-style quantile samples, so
  // dashboards get p50/p95/p99 without PromQL.
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("q_us{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("q_us{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("q_us{quantile=\"0.99\"}"), std::string::npos);
}

// ------------------------------------------------------------ TraceCollector

TEST(TraceCollectorTest, DisabledCollectorRecordsNothing) {
  TraceCollector trace;  // a collector starts disabled
  trace.AddSpan("cat", "span", 0);
  trace.AddInstant("cat", "instant");
  { ScopedSpan s(&trace, "cat", "scoped"); }
  { ScopedSpan null_ok(nullptr, "cat", "scoped"); }
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(trace.dropped_events(), 0u);
}

TEST(TraceCollectorTest, RecordsSpansAndInstants) {
  TraceCollector trace;
  trace.set_enabled(true);
  const int64_t begin = trace.NowUs();
  trace.AddSpan("io", "miss read", begin, {{"page", "7"}});
  trace.AddInstant("exec", "plan start");
  { ScopedSpan s(&trace, "monitor", "merge"); }
  EXPECT_EQ(trace.event_count(), 3u);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"miss read\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"page\": \"7\""), std::string::npos) << json;
}

TEST(TraceCollectorTest, QueryIdScopeTagsEvents) {
  TraceCollector trace;
  trace.set_enabled(true);
  EXPECT_EQ(TraceCollector::current_query_id(), 0u);
  trace.AddInstant("exec", "untagged");
  {
    TraceCollector::QueryIdScope scope(42);
    EXPECT_EQ(TraceCollector::current_query_id(), 42u);
    trace.AddInstant("exec", "tagged");
    {
      // Scopes nest; the inner id wins and the outer is restored.
      TraceCollector::QueryIdScope inner(43);
      trace.AddInstant("exec", "inner");
    }
    EXPECT_EQ(TraceCollector::current_query_id(), 42u);
  }
  EXPECT_EQ(TraceCollector::current_query_id(), 0u);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"qid\": \"42\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"qid\": \"43\""), std::string::npos) << json;
  // The untagged event (id 0 = no scope) carries no qid arg.
  const size_t untagged = json.find("\"untagged\"");
  ASSERT_NE(untagged, std::string::npos);
  const size_t line_end = json.find("}", untagged);
  EXPECT_EQ(json.substr(untagged, line_end - untagged).find("qid"),
            std::string::npos)
      << json;
}

TEST(TraceCollectorTest, ExecutePlanTagsSpansWithContextQueryId) {
  // End to end: a traced scan under a context query id must produce only
  // qid-tagged spans, including those recorded by worker threads.
  DatabaseOptions opts;
  opts.buffer_pool_pages = 512;
  Database db(opts);
  db.trace()->set_enabled(true);
  SyntheticOptions sopts;
  sopts.num_rows = 2000;
  sopts.seed = 5;
  sopts.build_indexes = false;
  ASSERT_OK_AND_ASSIGN(Table * t, BuildSyntheticTable(&db, "T", sopts));
  ExecContext ctx(db.buffer_pool());
  ctx.set_trace(db.trace());
  ctx.set_query_id(7);
  Predicate pred({PredicateAtom::Int64(kC1, CmpOp::kLt, 100)});
  ParallelScanOptions options;
  options.num_threads = 2;
  ParallelTableScanOp scan(t, pred, {kC1}, nullptr, options);
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_EQ(run.stats.rows_returned, 99);
  ASSERT_GT(db.trace()->event_count(), 0u);
  const std::string json = db.trace()->ToJson();
  EXPECT_NE(json.find("\"qid\": \"7\""), std::string::npos) << json;
  // Every span of this run carries the tag: no args-bearing event without
  // it, and the span count matches the qid count.
  size_t spans = 0, tagged = 0;
  for (size_t pos = 0; (pos = json.find("\"name\"", pos)) != std::string::npos;
       ++pos) {
    ++spans;
  }
  for (size_t pos = 0;
       (pos = json.find("\"qid\": \"7\"", pos)) != std::string::npos; ++pos) {
    ++tagged;
  }
  EXPECT_EQ(spans, tagged) << json;
}

// The tid of the one trace event named `name` in `json`, or -1.
long long TraceTidOf(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return -1;
  const std::string key = "\"tid\": ";
  return std::stoll(json.substr(json.find(key, at) + key.size()));
}

// A thread has one number in trace.json and journal.json alike. Thread a
// journals before thread b, and b traces before a, so numbering the two
// files apart (each in its own first-seen order) would swap them.
TEST(TraceCollectorTest, SpanTidIsTheJournalThreadIndex) {
  EventJournal journal;
  TraceCollector trace;
  trace.set_enabled(true);
  std::binary_semaphore a_journaled{0};
  std::binary_semaphore b_done{0};
  std::thread a([&] {
    journal.Record(JournalEvent::kMonitorBuild, /*a=*/1);
    a_journaled.release();
    b_done.acquire();
    trace.AddSpan("exec", "a", trace.NowUs());
  });
  std::thread b([&] {
    a_journaled.acquire();
    trace.AddSpan("exec", "b", trace.NowUs());
    journal.Record(JournalEvent::kMonitorBuild, /*a=*/2);
    b_done.release();
  });
  a.join();
  b.join();

  const std::vector<EventJournal::Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].a, 1u);
  ASSERT_EQ(events[1].a, 2u);
  EXPECT_NE(events[0].thread_index, events[1].thread_index);
  const std::string json = trace.ToJson();
  EXPECT_EQ(TraceTidOf(json, "a"),
            static_cast<long long>(events[0].thread_index))
      << json;
  EXPECT_EQ(TraceTidOf(json, "b"),
            static_cast<long long>(events[1].thread_index))
      << json;
}

TEST(TraceCollectorTest, CapDropsAndCounts) {
  TraceCollector trace;
  trace.set_enabled(true);
  trace.set_max_events(2);
  for (int i = 0; i < 5; ++i) trace.AddInstant("cat", "e");
  EXPECT_EQ(trace.event_count(), 2u);
  EXPECT_EQ(trace.dropped_events(), 3u);
  trace.Clear();
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(trace.dropped_events(), 0u);
}

// An operator that counts how often its plan string is formatted.
class DescribeCountingOp : public Operator {
 public:
  std::string Describe() const override {
    ++describe_calls;
    return "Counting";
  }
  mutable int describe_calls = 0;

 protected:
  Status OpenImpl(ExecContext*) override { return Status::OK(); }
  Result<bool> NextImpl(ExecContext*, Tuple*) override { return false; }
  Status CloseImpl(ExecContext*) override { return Status::OK(); }
};

TEST(TraceCollectorTest, OperatorSpansFormatNamesOnlyWhenEnabled) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 16;
  Database db(opts);
  TraceCollector trace;
  ExecContext ctx(db.buffer_pool());
  ctx.set_trace(&trace);
  DescribeCountingOp op;
  Tuple row;
  ASSERT_OK(op.Open(&ctx));
  ASSERT_OK_AND_ASSIGN(bool more, op.Next(&ctx, &row));
  EXPECT_FALSE(more);
  ASSERT_OK(op.Close(&ctx));
  EXPECT_EQ(op.describe_calls, 0) << "a disabled collector formats nothing";
  EXPECT_EQ(trace.event_count(), 0u);

  trace.set_enabled(true);
  ASSERT_OK(op.Open(&ctx));
  ASSERT_OK(op.Close(&ctx));
  EXPECT_EQ(op.describe_calls, 2);
  EXPECT_EQ(trace.event_count(), 2u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("open Counting"), std::string::npos) << json;
  EXPECT_NE(json.find("close Counting"), std::string::npos) << json;
}

// --------------------------------------------------- EstimationErrorTracker

TEST(EstimationErrorTrackerTest, GroupsByTableAndMechanism) {
  EstimationErrorTracker tracker;
  MonitorRecord with_est;
  with_est.table = "T";
  with_est.mechanism = "prefix-exact";
  with_est.actual_dpc = 100;
  with_est.estimated_dpc = 400;
  with_est.actual_cardinality = 10;
  with_est.estimated_cardinality = 10;

  MonitorRecord without_est = with_est;
  without_est.estimated_dpc = -1;
  without_est.estimated_cardinality = -1;

  MonitorRecord other_table = with_est;
  other_table.table = "T1";

  tracker.RecordAll({with_est, without_est, other_table});
  EXPECT_EQ(tracker.total_records(), 3);

  auto groups = tracker.Summaries();
  ASSERT_EQ(groups.size(), 2u);
  const auto& t = groups[0].table == "T" ? groups[0] : groups[1];
  EXPECT_EQ(t.records, 2);
  // The estimate-less record is counted but contributes to no histogram.
  EXPECT_EQ(t.with_estimates, 1);
  EXPECT_EQ(t.dpc_error.count(), 1);
  EXPECT_DOUBLE_EQ(t.dpc_max, 4.0);
  EXPECT_DOUBLE_EQ(t.cardinality_max, 1.0);

  EXPECT_NE(tracker.Report().find("prefix-exact"), std::string::npos);
  tracker.Clear();
  EXPECT_EQ(tracker.total_records(), 0);
}

// A record whose estimated DPC is off from the actual by `q`.
MonitorRecord WithDpcError(const std::string& mechanism, double q) {
  MonitorRecord rec;
  rec.table = "T";
  rec.mechanism = mechanism;
  rec.actual_dpc = 100;
  rec.estimated_dpc = 100 * q;
  return rec;
}

// The tracker's q-error histograms are LogHistograms of 15 doubling
// buckets from 2: bucket i spans (2^i, 2^(i+1)] with [1, 2] first, and
// the overflow bucket takes everything above 2^15. The report's p95 is
// the interpolated quantile clamped to [1, max].
TEST(EstimationErrorTrackerTest, QErrorBucketsAndClampedP95) {
  EstimationErrorTracker tracker;
  for (double q : {1.0, 1.5, 3.0, 100.0, 40000.0}) {
    tracker.Record(WithDpcError("prefix-exact", q));
  }
  for (int i = 0; i < 20; ++i) tracker.Record(WithDpcError("exact", 1.0));

  std::vector<EstimationErrorTracker::GroupSummary> groups =
      tracker.Summaries();
  ASSERT_EQ(groups.size(), 2u);
  const auto& ones = groups[0].mechanism == "exact" ? groups[0] : groups[1];
  const auto& spread = groups[0].mechanism == "exact" ? groups[1] : groups[0];

  const LogHistogram& h = spread.dpc_error;
  ASSERT_EQ(h.num_buckets(), 15u);
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_bound(14), 32768.0);
  EXPECT_EQ(h.bucket_count(0), 2);  // 1 and 1.5
  EXPECT_EQ(h.bucket_count(1), 1);  // 3 in (2, 4]
  EXPECT_EQ(h.bucket_count(6), 1);  // 100 in (64, 128]
  EXPECT_EQ(h.overflow_count(), 1);  // 40000 > 2^15
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(spread.dpc_max, 40000.0);

  // Perfect estimates: the interpolated p95 (1.9 in [1, 2]) clamps to the
  // max, 1, and so does every column of the report.
  EXPECT_EQ(ones.dpc_error.bucket_count(0), 20);
  EXPECT_DOUBLE_EQ(ones.dpc_max, 1.0);
  const std::string report = tracker.Report();
  const size_t row = report.find(" exact ");
  ASSERT_NE(row, std::string::npos) << report;
  const std::string line = report.substr(row, report.find('\n', row) - row);
  EXPECT_NE(line.find(" 1.0/1.0/1.0 "), std::string::npos) << report;
}

// ------------------------------------------------------ per-operator profiles

class ObservabilityExecTest : public SyntheticDbTest {};

TEST_F(ObservabilityExecTest, ProfilingCapturesOperatorTree) {
  TableScanOp scan(t_, Predicate(), {0}, nullptr);
  ExecContext ctx(db_->buffer_pool());
  ctx.set_profiling(true);
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_EQ(run.output.size(), 20'000u);

  ASSERT_NE(run.stats.profile, nullptr);
  const OpProfileNode& node = *run.stats.profile;
  // T is clustered, so the scan renders as ClusteredIndexScan.
  EXPECT_NE(node.describe.find("Scan(T"), std::string::npos);
  EXPECT_EQ(node.profile.rows, 20'000);
  EXPECT_EQ(node.profile.open_calls, 1);
  EXPECT_EQ(node.profile.close_calls, 1);
  // rows emissions plus the final false.
  EXPECT_EQ(node.profile.next_calls, 20'001);
  // The scan's inclusive I/O delta is the whole run's I/O.
  EXPECT_EQ(static_cast<int64_t>(node.profile.io.logical_reads),
            static_cast<int64_t>(run.stats.io.logical_reads));
  EXPECT_GT(node.profile.cpu.rows_processed, 0);

  const std::string plan =
      RenderAnnotatedPlan(node, run.stats.monitors);
  EXPECT_NE(plan.find("Scan(T"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=20000"), std::string::npos) << plan;
}

TEST_F(ObservabilityExecTest, ProfilingOffCapturesNothing) {
  TableScanOp scan(t_, Predicate(), {0}, nullptr);
  ExecContext ctx(db_->buffer_pool());
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  EXPECT_EQ(run.stats.profile, nullptr);
  EXPECT_EQ(scan.profile().open_calls, 0);
  EXPECT_EQ(scan.profile().next_calls, 0);
}

// A readahead scan's io line counts the pages it read ahead and, of those,
// the ones it fetched; without them its prefetched pages would show only as
// hits that read nothing. With one worker and a window (4 pages) smaller
// than a morsel (8), the pacer prefetches the first half of each morsel and
// the worker reads the second half on demand, so the scan also stalls on
// I/O and its stall line is printed.
TEST_F(ObservabilityExecTest, ReadaheadScanShowsPrefetchInExplain) {
  ASSERT_OK(db_->ColdCache());
  ParallelTableScanOp scan(t_, Predicate(), {0}, nullptr,
                           ParallelScanOptions{/*num_threads=*/1,
                                               /*morsel_pages=*/8,
                                               /*prefetch_pages=*/4});
  ExecContext ctx(db_->buffer_pool());
  ctx.set_profiling(true);
  ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
  ASSERT_NE(run.stats.profile, nullptr);
  const long long prefetched = run.stats.io.prefetch_reads;
  const long long prefetch_hits = run.stats.io.prefetch_hits;
  ASSERT_GT(prefetched, 0);
  ASSERT_GT(run.stats.io.physical_reads(), 0);

  const std::string plan =
      RenderAnnotatedPlan(*run.stats.profile, run.stats.monitors);
  EXPECT_NE(plan.find(StrFormat("prefetch=%lld/%lld)", prefetched,
                                prefetch_hits)),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("(stall: io_wait="), std::string::npos) << plan;
  EXPECT_NE(plan.find(" loading="), std::string::npos) << plan;
  EXPECT_EQ(plan.find("backpressure"), std::string::npos) << plan;

  // A scan that reads nothing ahead prints no prefetch field.
  ASSERT_OK(db_->ColdCache());
  TableScanOp serial(t_, Predicate(), {0}, nullptr);
  ExecContext serial_ctx(db_->buffer_pool());
  serial_ctx.set_profiling(true);
  ASSERT_OK_AND_ASSIGN(RunResult serial_run,
                       ExecutePlan(&serial, &serial_ctx));
  ASSERT_NE(serial_run.stats.profile, nullptr);
  EXPECT_EQ(RenderAnnotatedPlan(*serial_run.stats.profile, {})
                .find("prefetch="),
            std::string::npos);
}

// The stall line's counts are deltas of the buffer pool's own wait
// counters, taken like IoStats: every demand miss is one I/O wait, so the
// root's io_waits equal its physical reads, and every fetch that waits out
// a read not yet due is one loading wait, as the registry's per-shard
// loading-wait counters count them. With one worker and with two.
TEST_F(ObservabilityExecTest, StallCountsMatchReadsAndLoadingWaits) {
  BufferPool* pool = db_->buffer_pool();
  auto registry_loading_waits = [&] {
    int64_t total = 0;
    for (size_t si = 0; si < pool->num_shards(); ++si) {
      total += db_->metrics()
                   ->GetCounter("buffer_pool_loading_waits_total", "",
                                {{"shard", StrFormat("%zu", si)}})
                   ->value();
    }
    return total;
  };
  db_->disk()->set_read_latency_us(50);
  for (const int workers : {1, 2}) {
    ASSERT_OK(db_->ColdCache());
    ParallelTableScanOp scan(t_, Predicate(), {0}, nullptr,
                             ParallelScanOptions{workers,
                                                 /*morsel_pages=*/16,
                                                 /*prefetch_pages=*/8});
    ExecContext ctx(pool);
    ctx.set_profiling(true);
    const int64_t loading_before = registry_loading_waits();
    ASSERT_OK_AND_ASSIGN(RunResult run, ExecutePlan(&scan, &ctx));
    ASSERT_NE(run.stats.profile, nullptr);
    const OpProfile& root = run.stats.profile->profile;
    EXPECT_GT(static_cast<int64_t>(root.stall.io_waits), 0) << workers;
    EXPECT_EQ(static_cast<int64_t>(root.stall.io_waits),
              root.io.physical_reads())
        << workers;
    EXPECT_EQ(static_cast<int64_t>(root.stall.loading_waits),
              registry_loading_waits() - loading_before)
        << workers;
  }

  // Fetches outside ExecutePlan are counted too: one miss, and one fetch
  // of a page whose prefetch is still on the (slow) device.
  db_->disk()->set_read_latency_us(2000);
  ASSERT_OK(db_->ColdCache());
  const StallStats before = pool->stalls();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, pool->Fetch({t_->file()->segment(), 0})); }
  pool->PrefetchBatch({PageId{t_->file()->segment(), 1}});
  { ASSERT_OK_AND_ASSIGN(PageGuard g, pool->Fetch({t_->file()->segment(), 1})); }
  StallStats delta = pool->stalls();
  delta -= before;
  EXPECT_EQ(static_cast<int64_t>(delta.io_waits), 1);
  EXPECT_GE(static_cast<int64_t>(delta.io_wait_us), 1000);
  EXPECT_EQ(static_cast<int64_t>(delta.loading_waits), 1);
}

TEST(RenderAnnotatedPlanTest, AttachesEstimatesByLabelAndMechanism) {
  OpProfileNode node;
  node.describe = "TableScan(T, C1<10)";
  node.profile.rows = 5;
  MonitorRecord own;
  own.table = "T";
  own.label = "T|C1<10";
  own.expr_text = "C1<10";
  own.mechanism = "prefix-exact";
  own.actual_dpc = 100;
  node.records.push_back(own);

  MonitorRecord est = own;
  est.estimated_dpc = 400;
  const std::string plan = RenderAnnotatedPlan(node, {est});
  EXPECT_NE(plan.find("actualDpc=100.0"), std::string::npos) << plan;
  EXPECT_NE(plan.find("estDpc=400.0"), std::string::npos) << plan;
  EXPECT_NE(plan.find("errFactor=4.0x"), std::string::npos) << plan;
}

// --------------------------------------------------- prefetch-hit accounting

class PrefetchHitTest : public SyntheticDbTest {};

TEST_F(PrefetchHitTest, FirstDemandFetchAfterPrefetchChargesOneHit) {
  ASSERT_OK(db_->ColdCache());
  BufferPool* pool = db_->buffer_pool();
  IoStats* io = db_->disk()->io_stats();
  const PageId pid{t_->file()->segment(), 0};

  pool->PrefetchBatch({pid});
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_reads), 1);
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_hits), 0);

  // One prefetched load is at most one prefetch hit: the first demand
  // fetch charges it, later fetches of the still-resident page do not.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, pool->Fetch(pid)); }
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_hits), 1);
  { ASSERT_OK_AND_ASSIGN(PageGuard g, pool->Fetch(pid)); }
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_hits), 1);
  EXPECT_LE(static_cast<int64_t>(io->prefetch_hits),
            static_cast<int64_t>(io->prefetch_reads));

  // A prefetch of an already-cached page is a no-op, not a second read.
  pool->PrefetchBatch({pid});
  EXPECT_EQ(static_cast<int64_t>(io->prefetch_reads), 1);
}

// ------------------------------------------------- registry-backed monitors

TEST(MonitorManagerStatsTest, RegistryBackedAndSharedAcrossManagers) {
  // The monitor_* counters live on the Database's registry, so every
  // manager on the same Database publishes into — and any reader reads
  // back — the same totals. (The former InstrumentationStats struct
  // accessor was just a copy of these counters and has been removed.)
  Database db;
  MonitorManager a(&db);
  Counter* plans =
      db.metrics()->GetCounter("monitor_single_table_plans_total", "");
  EXPECT_EQ(plans->value(), 0);
  plans->Increment(3);
  MonitorManager b(&db);
  EXPECT_EQ(
      db.metrics()->GetCounter("monitor_single_table_plans_total", "")
          ->value(),
      3);
}

TEST(MonitorManagerStatsTest, MetricsOffPublishesNothing) {
  DatabaseOptions opts;
  opts.observability.metrics = false;
  Database db(opts);
  MonitorManager mm(&db);
  // With publication off the managers hold no counter handles; nothing
  // ever lands in the registry.
  EXPECT_EQ(
      db.metrics()->GetCounter("monitor_single_table_plans_total", "")
          ->value(),
      0);
  EXPECT_EQ(
      db.metrics()->GetCounter("monitor_scan_expressions_total", "")
          ->value(),
      0);
}

}  // namespace
}  // namespace dpcf
