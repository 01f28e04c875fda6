#include "obs/estimation_error_tracker.h"

#include <algorithm>

#include "common/string_util.h"

namespace dpcf {

namespace {

// q-errors are >= 1 by construction.
void Observe(double q, LogHistogram* hist, double* max) {
  q = std::max(q, 1.0);
  hist->Observe(q);
  *max = std::max(*max, q);
}

double Mean(const LogHistogram& h) {
  return h.count() == 0 ? 0 : h.sum() / static_cast<double>(h.count());
}

// The interpolated p95, kept within [1, max]: an all-ones group reads 1,
// and no estimate passes the largest q-error seen.
double P95(const LogHistogram& h, double max) {
  return h.count() == 0 ? 0 : std::clamp(h.Quantile(0.95), 1.0, max);
}

}  // namespace

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
  if (dpc_q > 0) Observe(dpc_q, &g.dpc_error, &g.dpc_max);
  if (card_q > 0) {
    Observe(card_q, &g.cardinality_error, &g.cardinality_max);
  }
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
        FormatDouble(Mean(g.dpc_error), 2).c_str(),
        FormatDouble(P95(g.dpc_error, g.dpc_max), 2).c_str(),
        FormatDouble(g.dpc_max, 2).c_str(),
        FormatDouble(Mean(g.cardinality_error), 2).c_str(),
        FormatDouble(P95(g.cardinality_error, g.cardinality_max), 2).c_str(),
        FormatDouble(g.cardinality_max, 2).c_str());
  }
  if (groups.empty()) out += "(no monitored observations)\n";
  return out;
}

void EstimationErrorTracker::Clear() {
  MutexLock lock(&mu_);
  groups_.clear();
}

}  // namespace dpcf
