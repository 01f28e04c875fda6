#include "exec/operator.h"

#include <chrono>

#include "obs/trace_collector.h"
#include "storage/disk_manager.h"

namespace dpcf {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point t0) {
  // Monotonic wall time for OpProfile only: reporting, never feedback state.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

IoStats SnapshotIo(ExecContext* ctx) {
  return *ctx->pool()->disk()->io_stats();
}

// Runs `call` inside an "op" span named "<verb><Describe()>". The name is
// formatted only while the collector is enabled, so a disabled one costs
// one relaxed load.
template <typename Call>
auto Traced(ExecContext* ctx, const char* verb, const Operator& op,
            Call&& call) {
  TraceCollector* trace = ctx->trace();
  if (trace == nullptr || !trace->enabled()) return call();
  ScopedSpan span(trace, "op", verb + op.Describe());
  return call();
}

// Runs `call`, adding its wall time to *wall_ms and its inclusive
// IoStats/CpuStats/StallStats deltas to *profile. Workers (if any) are
// joined inside the call and their tallies added to ctx->cpu(), so both
// snapshots see settled counters: the context's, the disk's and the
// pool's.
template <typename Call>
auto Profiled(ExecContext* ctx, OpProfile* profile, double* wall_ms,
              Call&& call) {
  const IoStats io_before = SnapshotIo(ctx);
  const CpuStats cpu_before = *ctx->cpu();
  const StallStats stall_before = ctx->pool()->stalls();
  // Wall-time profiling timestamp (OpProfile::*_wall_ms), not feedback.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  const auto t0 = SteadyClock::now();
  auto result = call();
  *wall_ms += MsSince(t0);
  IoStats io_delta = SnapshotIo(ctx);
  io_delta -= io_before;
  profile->io += io_delta;
  CpuStats cpu_delta = *ctx->cpu();
  cpu_delta -= cpu_before;
  profile->cpu += cpu_delta;
  StallStats stall_delta = ctx->pool()->stalls();
  stall_delta -= stall_before;
  profile->stall += stall_delta;
  return result;
}

}  // namespace

Status Operator::Open(ExecContext* ctx) {
  auto open = [&] {
    return Traced(ctx, "open ", *this, [&] { return OpenImpl(ctx); });
  };
  if (!ctx->profiling()) return open();
  // A fresh Open starts a fresh profile — the same plan can be executed
  // repeatedly (cold-cache methodology) without bleed-over.
  profile_ = OpProfile{};
  ++profile_.open_calls;
  return Profiled(ctx, &profile_, &profile_.open_wall_ms, open);
}

Result<bool> Operator::Next(ExecContext* ctx, Tuple* out) {
  if (!ctx->profiling()) return NextImpl(ctx, out);
  ++profile_.next_calls;
  Result<bool> more = Profiled(ctx, &profile_, &profile_.next_wall_ms,
                               [&] { return NextImpl(ctx, out); });
  if (more.ok() && *more) ++profile_.rows;
  return more;
}

Status Operator::Close(ExecContext* ctx) {
  auto close = [&] {
    return Traced(ctx, "close ", *this, [&] { return CloseImpl(ctx); });
  };
  if (!ctx->profiling()) return close();
  ++profile_.close_calls;
  return Profiled(ctx, &profile_, &profile_.close_wall_ms, close);
}

void Operator::CollectMonitorRecords(std::vector<MonitorRecord>* out) const {
  // Children first, then own records: this reproduces the record order the
  // pre-refactor per-operator overrides emitted (build before probe, outer
  // before inner, child before INL fetch monitors), which the feedback
  // determinism tests rely on.
  for (const Operator* child : children()) {
    child->CollectMonitorRecords(out);
  }
  CollectOwnMonitorRecords(out);
}

}  // namespace dpcf
