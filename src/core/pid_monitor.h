// Distinct-page counting over rid/fetch streams (index plans, INL joins),
// where the grouped-page-access property does not hold.
//
// Two interchangeable mechanisms (paper Section III-A):
//  * linear probabilistic counting (the paper's choice — maximum-likelihood,
//    guaranteed accuracy, one hash per fetched row);
//  * reservoir sampling + the GEE distinct-value estimator (the alternative
//    the paper names and defers comparing; see core/distinct_sampler.h).
// PidStreamMonitor hides the choice behind one Add/MakeRecord interface so
// Fetch and INL-join operators host either.

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "core/distinct_sampler.h"
#include "core/linear_counter.h"
#include "core/run_statistics.h"
#include "storage/io_stats.h"

namespace dpcf {

enum class DistinctCountMechanism : uint8_t {
  kLinearCounting,
  kReservoirSampling,
};

const char* DistinctCountMechanismName(DistinctCountMechanism m);

/// A page-count monitor attached to a Fetch / INL-join operator.
struct FetchMonitorRequest {
  std::string label;
  /// False: count every fetched row (rows satisfying the seek/join
  /// predicate). True: only rows that also pass the residual conjunction.
  bool passing_residual_only = false;
  DistinctCountMechanism mechanism = DistinctCountMechanism::kLinearCounting;
  uint32_t numbits = 8192;           // linear counting bitmap
  uint32_t reservoir_capacity = 1024;  // reservoir sample slots
  uint64_t seed = 0;
};

/// Stateful monitor over one PID stream. It holds only the estimator its
/// request's mechanism names.
class PidStreamMonitor {
 public:
  explicit PidStreamMonitor(FetchMonitorRequest request);

  const FetchMonitorRequest& request() const { return request_; }

  /// Feeds one fetched row's packed PID, charging the mechanism's per-row
  /// cost (a hash for linear counting; reservoir bookkeeping otherwise).
  void Add(uint64_t pid, CpuStats* cpu) {
    ++rows_;
    if (auto* counter = std::get_if<LinearCounter>(&estimator_)) {
      ++cpu->monitor_hash_ops;
      counter->Add(pid);
    } else {
      ++cpu->monitor_row_ops;
      std::get<ReservoirDistinctEstimator>(estimator_).Add(pid);
    }
  }

  double Estimate() const {
    return std::visit([](const auto& e) { return e.Estimate(); },
                      estimator_);
  }

  int64_t rows() const { return rows_; }

  /// The statistics-xml record for this monitor (valid any time).
  MonitorRecord MakeRecord(const std::string& table) const;

 private:
  FetchMonitorRequest request_;
  std::variant<LinearCounter, ReservoirDistinctEstimator> estimator_;
  int64_t rows_ = 0;
};

}  // namespace dpcf
