// Self-tuning distinct-page-count histograms (the paper's Section II-C /
// VI direction: "feedback gathered can also be potentially used to refine
// histograms for page counts similar to prior work on self-tuning
// histograms [1][16]").
//
// A DpcHistogram accumulates (value-range → observed DPC, observed rows)
// facts for one (table, column) from monitored executions and answers DPC
// queries for *other* ranges on the same column — so feedback from
// "C2 < 1000" improves the costing of "C2 < 2500" without re-monitoring.
//
// The paper's caution applies: page counts are NOT additive across buckets
// (two ranges can share pages), so instead of summing buckets we learn the
// column's *page density* (distinct pages per qualifying row, a direct
// measure of clustering: 1/rows_per_page when fully co-clustered, 1.0 when
// fully scattered) from the best-overlapping observation and clamp every
// estimate to the hard [LB, UB] bounds.

#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace dpcf {

/// Page-count knowledge for one (table, column).
class DpcHistogram {
 public:
  DpcHistogram(int64_t table_pages, int64_t rows_per_page,
               size_t max_observations = 64)
      : table_pages_(table_pages),
        rows_per_page_(rows_per_page),
        max_observations_(max_observations) {}

  struct Observation {
    int64_t lo = 0;
    int64_t hi = 0;
    double dpc = 0;
    double rows = 0;
    int64_t sequence = 0;
  };

  /// Records a monitored fact: DPC(col in [lo, hi]) was `dpc` over `rows`
  /// qualifying rows. Replaces an identical-range observation; evicts the
  /// stalest one when full.
  void Observe(int64_t lo, int64_t hi, double dpc, double rows);

  /// DPC estimate for [lo, hi] expected to hold `est_rows` rows, derived
  /// from the best-overlapping observation's page density. nullopt when
  /// nothing overlaps (caller falls back to the analytical model).
  std::optional<double> Estimate(int64_t lo, int64_t hi,
                                 double est_rows) const;

  /// Pages-per-qualifying-row learned from the best-overlapping
  /// observation (for diagnostics); nullopt when no overlap.
  std::optional<double> DensityFor(int64_t lo, int64_t hi) const;

  size_t size() const { return observations_.size(); }

 private:
  const Observation* BestOverlap(int64_t lo, int64_t hi) const;

  int64_t table_pages_;
  int64_t rows_per_page_;
  size_t max_observations_;
  int64_t next_sequence_ = 0;
  std::vector<Observation> observations_;
};

/// DpcHistogram per (table, column). Owned by the feedback layer; read by
/// the optimizer as a fallback between exact hints and the Yao formula.
class DpcHistogramCatalog {
 public:
  /// Records a fact, creating the histogram on first touch.
  void Observe(const Table& table, int col, int64_t lo, int64_t hi,
               double dpc, double rows);

  const DpcHistogram* Get(const Table& table, int col) const;

  std::optional<double> Estimate(const Table& table, int col, int64_t lo,
                                 int64_t hi, double est_rows) const;

  size_t size() const { return histograms_.size(); }
  void Clear() { histograms_.clear(); }

 private:
  std::map<std::pair<const Table*, int>, DpcHistogram> histograms_;
};

}  // namespace dpcf
