#include "obs/estimation_error_tracker.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace dpcf {

void QErrorHistogram::Observe(double q) {
  if (!(q >= 1.0)) q = 1.0;  // q-errors are >= 1 by construction
  ++count_;
  sum_ += q;
  max_ = std::max(max_, q);
  // Bucket i spans (2^i, 2^(i+1)]; q == 1 lands in bucket 0.
  size_t bucket = 0;
  double bound = 2.0;
  while (q > bound && bucket + 1 < buckets_.size()) {
    bound *= 2.0;
    ++bucket;
  }
  ++buckets_[bucket];
}

double QErrorHistogram::Quantile(double phi) const {
  if (count_ == 0) return 0;
  const int64_t target = static_cast<int64_t>(
      std::ceil(phi * static_cast<double>(count_)));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      // The bucket's upper bound, but never past the largest observation
      // (an all-ones histogram has p95 = 1, not 2).
      return std::min(std::pow(2.0, static_cast<double>(i + 1)), max_);
    }
  }
  return max_;
}

void EstimationErrorTracker::Record(const MonitorRecord& rec) {
  MutexLock lock(&mu_);
  GroupSummary& g = groups_[{rec.table, rec.mechanism}];
  if (g.records == 0) {
    g.table = rec.table;
    g.mechanism = rec.mechanism;
  }
  ++g.records;
  const double dpc_q = rec.DpcErrorFactor();
  const double card_q = rec.CardinalityErrorFactor();
  if (dpc_q > 0 || card_q > 0) ++g.with_estimates;
  if (dpc_q > 0) g.dpc_error.Observe(dpc_q);
  if (card_q > 0) g.cardinality_error.Observe(card_q);
}

void EstimationErrorTracker::RecordAll(
    const std::vector<MonitorRecord>& recs) {
  for (const MonitorRecord& rec : recs) Record(rec);
}

int64_t EstimationErrorTracker::total_records() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& [key, g] : groups_) total += g.records;
  return total;
}

std::vector<EstimationErrorTracker::GroupSummary>
EstimationErrorTracker::Summaries() const {
  MutexLock lock(&mu_);
  std::vector<GroupSummary> out;
  out.reserve(groups_.size());
  for (const auto& [key, g] : groups_) out.push_back(g);
  return out;
}

std::string EstimationErrorTracker::Report() const {
  std::vector<GroupSummary> groups = Summaries();
  std::string out =
      "table          mechanism                  n      dpc-q(mean/p95/max)"
      "      card-q(mean/p95/max)\n";
  for (const GroupSummary& g : groups) {
    out += StrFormat(
        "%-14s %-26s %-6lld %s/%s/%s      %s/%s/%s\n", g.table.c_str(),
        g.mechanism.c_str(), static_cast<long long>(g.records),
        FormatDouble(g.dpc_error.mean(), 2).c_str(),
        FormatDouble(g.dpc_error.Quantile(0.95), 2).c_str(),
        FormatDouble(g.dpc_error.max(), 2).c_str(),
        FormatDouble(g.cardinality_error.mean(), 2).c_str(),
        FormatDouble(g.cardinality_error.Quantile(0.95), 2).c_str(),
        FormatDouble(g.cardinality_error.max(), 2).c_str());
  }
  if (groups.empty()) out += "(no monitored observations)\n";
  return out;
}

void EstimationErrorTracker::Clear() {
  MutexLock lock(&mu_);
  groups_.clear();
}

}  // namespace dpcf
