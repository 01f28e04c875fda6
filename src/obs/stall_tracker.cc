#include "obs/stall_tracker.h"

#include "common/string_util.h"

namespace dpcf {

namespace {
thread_local StallStats* g_stall_sink = nullptr;
}  // namespace

StallScope::StallScope(StallStats* sink) : prev_(g_stall_sink) {
  g_stall_sink = sink;
}

StallScope::~StallScope() { g_stall_sink = prev_; }

StallStats* CurrentStallSink() { return g_stall_sink; }

void ChargeStall(StallKind kind, int64_t us) {
  StallStats* sink = g_stall_sink;
  if (sink == nullptr) return;
  switch (kind) {
    case StallKind::kIoWait:
      sink->io_wait_us += us;
      ++sink->io_waits;
      break;
    case StallKind::kLoadWait:
      sink->loading_wait_us += us;
      ++sink->loading_waits;
      break;
  }
}

std::string StallStats::ToString() const {
  return StrFormat(
      "io_wait=%lldus/%lld loading=%lldus/%lld",
      static_cast<long long>(io_wait_us), static_cast<long long>(io_waits),
      static_cast<long long>(loading_wait_us),
      static_cast<long long>(loading_waits));
}

}  // namespace dpcf
