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

}  // namespace

Status Operator::Open(ExecContext* ctx) {
  if (!ctx->profiling()) {
    if (ctx->trace() != nullptr) {
      ScopedSpan span(ctx->trace(), "op", "open " + Describe());
      return OpenImpl(ctx);
    }
    return OpenImpl(ctx);
  }
  // Profiled path. A fresh Open starts a fresh profile — the same plan can
  // be executed repeatedly (cold-cache methodology) without bleed-over.
  profile_ = OpProfile{};
  const IoStats io_before = SnapshotIo(ctx);
  const CpuStats cpu_before = ctx->cpu_stats();
  const StallStats stall_before = ctx->stall_stats();
  // Wall-time profiling timestamp (OpProfile::open_wall_ms), not feedback.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  const auto t0 = SteadyClock::now();
  Status st;
  {
    ScopedSpan span(ctx->trace(), "op", "open " + Describe());
    st = OpenImpl(ctx);
  }
  profile_.open_wall_ms += MsSince(t0);
  ++profile_.open_calls;
  profile_.io = SnapshotIo(ctx);
  profile_.io -= io_before;
  // Workers (if any) were joined inside OpenImpl, so the quiescent-point
  // contract of cpu_stats() holds here.
  profile_.cpu = ctx->cpu_stats();
  profile_.cpu -= cpu_before;
  profile_.stall = ctx->stall_stats();
  profile_.stall -= stall_before;
  return st;
}

Result<bool> Operator::Next(ExecContext* ctx, Tuple* out) {
  if (!ctx->profiling()) return NextImpl(ctx, out);
  const IoStats io_before = SnapshotIo(ctx);
  const CpuStats cpu_before = ctx->cpu_stats();
  const StallStats stall_before = ctx->stall_stats();
  // Wall-time profiling timestamp (OpProfile::next_wall_ms), not feedback.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  const auto t0 = SteadyClock::now();
  Result<bool> more = NextImpl(ctx, out);
  profile_.next_wall_ms += MsSince(t0);
  ++profile_.next_calls;
  if (more.ok() && *more) ++profile_.rows;
  IoStats io_delta = SnapshotIo(ctx);
  io_delta -= io_before;
  profile_.io += io_delta;
  CpuStats cpu_delta = ctx->cpu_stats();
  cpu_delta -= cpu_before;
  profile_.cpu += cpu_delta;
  StallStats stall_delta = ctx->stall_stats();
  stall_delta -= stall_before;
  profile_.stall += stall_delta;
  return more;
}

Status Operator::Close(ExecContext* ctx) {
  if (!ctx->profiling()) {
    if (ctx->trace() != nullptr) {
      ScopedSpan span(ctx->trace(), "op", "close " + Describe());
      return CloseImpl(ctx);
    }
    return CloseImpl(ctx);
  }
  const IoStats io_before = SnapshotIo(ctx);
  const CpuStats cpu_before = ctx->cpu_stats();
  const StallStats stall_before = ctx->stall_stats();
  // Wall-time profiling timestamp (OpProfile::close_wall_ms), not feedback.
  // NOLINTNEXTLINE(dpcf-nondeterminism)
  const auto t0 = SteadyClock::now();
  Status st;
  {
    ScopedSpan span(ctx->trace(), "op", "close " + Describe());
    st = CloseImpl(ctx);
  }
  profile_.close_wall_ms += MsSince(t0);
  ++profile_.close_calls;
  IoStats io_delta = SnapshotIo(ctx);
  io_delta -= io_before;
  profile_.io += io_delta;
  CpuStats cpu_delta = ctx->cpu_stats();
  cpu_delta -= cpu_before;
  profile_.cpu += cpu_delta;
  StallStats stall_delta = ctx->stall_stats();
  stall_delta -= stall_before;
  profile_.stall += stall_delta;
  return st;
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
