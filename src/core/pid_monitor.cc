#include "core/pid_monitor.h"

#include "common/string_util.h"

namespace dpcf {

const char* DistinctCountMechanismName(DistinctCountMechanism m) {
  switch (m) {
    case DistinctCountMechanism::kLinearCounting:
      return "linear-counting";
    case DistinctCountMechanism::kReservoirSampling:
      return "reservoir+gee";
  }
  return "?";
}

namespace {

std::variant<LinearCounter, ReservoirDistinctEstimator> MakeEstimator(
    const FetchMonitorRequest& request) {
  if (request.mechanism == DistinctCountMechanism::kLinearCounting) {
    return LinearCounter(request.numbits, request.seed);
  }
  return ReservoirDistinctEstimator(request.reservoir_capacity,
                                    request.seed);
}

}  // namespace

PidStreamMonitor::PidStreamMonitor(FetchMonitorRequest request)
    : request_(std::move(request)), estimator_(MakeEstimator(request_)) {}

MonitorRecord PidStreamMonitor::MakeRecord(const std::string& table) const {
  MonitorRecord rec;
  rec.table = table;
  rec.label = request_.label;
  rec.expr_text = request_.label;
  if (const auto* counter = std::get_if<LinearCounter>(&estimator_)) {
    rec.mechanism = StrFormat("linear-counting(%ub)", counter->numbits());
  } else {
    rec.mechanism = StrFormat(
        "reservoir+gee(%u)",
        std::get<ReservoirDistinctEstimator>(estimator_).capacity());
  }
  rec.actual_dpc = Estimate();
  rec.actual_cardinality = static_cast<double>(rows_);
  rec.exact = false;
  return rec;
}

}  // namespace dpcf
