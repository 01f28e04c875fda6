#include "exec/executor.h"

#include <chrono>

#include "obs/trace_collector.h"

namespace dpcf {

namespace {
void DescribeRec(const Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.Describe());
  out->push_back('\n');
  for (const Operator* child : op.children()) {
    DescribeRec(*child, depth + 1, out);
  }
}
}  // namespace

std::string DescribeTree(const Operator& root) {
  std::string out;
  DescribeRec(root, 0, &out);
  return out;
}

OpProfileNode CaptureProfileTree(const Operator& root) {
  OpProfileNode node;
  node.describe = root.Describe();
  node.profile = root.profile();
  root.CollectOwnMonitorRecords(&node.records);
  std::vector<const Operator*> children = root.children();
  node.children.reserve(children.size());
  for (const Operator* child : children) {
    node.children.push_back(CaptureProfileTree(*child));
  }
  return node;
}

Result<RunResult> ExecutePlan(Operator* root, ExecContext* ctx,
                              const SimCostParams& params) {
  RunResult result;
  DiskManager* disk = ctx->pool()->disk();
  const IoStats io_before = *disk->io_stats();
  const CpuStats cpu_before = *ctx->cpu();

  // Monotonic endpoints for RunStatistics::wall_ms — wall-time *reporting*
  // (the paper's measured-run methodology), never feedback state.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  auto t0 = std::chrono::steady_clock::now();
  {
    // Every span recorded from the driver thread during this plan carries
    // the context's query id (worker threads open their own scopes).
    TraceCollector::QueryIdScope qid_scope(ctx->query_id());
    ScopedSpan span(ctx->trace(), "exec", "execute_plan");
    DPCF_RETURN_IF_ERROR(root->Open(ctx));
    Tuple t;
    while (true) {
      auto more = root->Next(ctx, &t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      result.output.push_back(std::move(t));
    }
    DPCF_RETURN_IF_ERROR(root->Close(ctx));
  }
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  auto t1 = std::chrono::steady_clock::now();

  RunStatistics& stats = result.stats;
  stats.plan_text = DescribeTree(*root);
  stats.rows_returned = static_cast<int64_t>(result.output.size());

  stats.io = *disk->io_stats();
  stats.io -= io_before;
  stats.cpu = *ctx->cpu();
  stats.cpu -= cpu_before;

  stats.simulated_ms = SimulatedMillis(stats.io, stats.cpu, params);
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  root->CollectMonitorRecords(&stats.monitors);
  if (ctx->profiling()) {
    stats.profile =
        std::make_shared<const OpProfileNode>(CaptureProfileTree(*root));
  }
  return result;
}

}  // namespace dpcf
