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

namespace dpcf {

/// Bounded log-scale histogram of q-errors (>= 1). Bucket i spans
/// (2^i, 2^(i+1)] with bucket 0 catching the exact-ish [1, 2] band; the
/// last bucket absorbs everything beyond the range. Latched by the owning
/// tracker; this class itself is a plain value type.
class QErrorHistogram {
 public:
  explicit QErrorHistogram(size_t num_buckets = 16)
      : buckets_(num_buckets, 0) {}

  void Observe(double q);

  int64_t count() const { return count_; }
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / count_; }
  /// Upper bound of the bucket holding the phi-quantile, clamped to max()
  /// (conservative: estimates round up to the bucket boundary, but never
  /// past the largest observed q-error).
  double Quantile(double phi) const;
  const std::vector<int64_t>& buckets() const { return buckets_; }

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

class EstimationErrorTracker {
 public:
  /// Per-(table, mechanism) aggregate, snapshot by Summaries().
  struct GroupSummary {
    std::string table;
    std::string mechanism;
    int64_t records = 0;         // all observations routed to this group
    int64_t with_estimates = 0;  // observations carrying optimizer estimates
    QErrorHistogram dpc_error;
    QErrorHistogram cardinality_error;
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
