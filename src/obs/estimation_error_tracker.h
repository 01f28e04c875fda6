// EstimationErrorTracker: cross-run accumulation of page-count and
// cardinality estimation error (DESIGN.md section 11).
//
// Every MonitorRecord the feedback driver diagnoses is folded into
// per-(table, mechanism) q-error histograms — q-error being the symmetric
// ratio max(est, actual) / min(est, actual), the metric the paper's
// diagnosis story and the q-error literature (PAPERS.md) both use. Unlike
// the per-query "statistics xml" view, the tracker answers workload-level
// questions: which table's DPC model is systematically wrong, and by how
// much at the tail.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/run_statistics.h"
#include "obs/metrics_registry.h"

namespace dpcf {

class EstimationErrorTracker {
 public:
  /// Per-(table, mechanism) aggregate, snapshot by Summaries().
  struct GroupSummary {
    std::string table;
    std::string mechanism;
    int64_t records = 0;         // all observations routed to this group
    int64_t with_estimates = 0;  // observations carrying optimizer estimates
    // Q-errors (>= 1): bucket i spans (2^i, 2^(i+1)] with [1, 2] first,
    // and the overflow bucket takes everything above 2^15.
    LogHistogram dpc_error{2.0, 2.0, 15};
    LogHistogram cardinality_error{2.0, 2.0, 15};
    double dpc_max = 0;  // the largest q-error of each kind, exact
    double cardinality_max = 0;
  };

  /// Folds one observation. Records without an attached estimate are
  /// counted but contribute to neither histogram.
  void Record(const MonitorRecord& rec) EXCLUDES(mu_);
  void RecordAll(const std::vector<MonitorRecord>& recs) EXCLUDES(mu_);

  int64_t total_records() const EXCLUDES(mu_);
  std::vector<GroupSummary> Summaries() const EXCLUDES(mu_);

  /// Aligned text report (one row per group), for bench output.
  std::string Report() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

 private:
  // Leaf rank: Observe/Report fold records while holding no other latch.
  mutable Mutex mu_{lock_rank::kEstimationTracker};
  std::map<std::pair<std::string, std::string>, GroupSummary> groups_
      GUARDED_BY(mu_);
};

}  // namespace dpcf
