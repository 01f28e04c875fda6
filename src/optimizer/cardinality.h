// Statistics catalog, cardinality estimation, and the hint (injection)
// interface.
//
// OptimizerHints is the paper's "method by which the distinct page count for
// a given expression can be input to the query optimizer" (Section V-A):
// both cardinalities and DPC values can be injected per canonical expression
// key, exactly how the evaluation isolates page-count effects (accurate
// cardinalities injected; DPC first estimated analytically, then replaced by
// execution feedback).

#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "exec/predicate.h"
#include "optimizer/histogram.h"
#include "table/catalog.h"

namespace dpcf {

/// Canonical key for a selection expression on one table.
std::string SelPredKey(const Table& table, const Predicate& pred);

/// Canonical key for a join predicate a.col_a = b.col_b (order-insensitive).
std::string JoinPredKey(const Table& a, int col_a, const Table& b, int col_b);

/// Injected overrides, keyed by canonical expression strings.
class OptimizerHints {
 public:
  void SetCardinality(const std::string& key, double rows) {
    cardinality_[key] = rows;
  }
  void SetDpc(const std::string& key, double pages) { dpc_[key] = pages; }

  std::optional<double> Cardinality(const std::string& key) const {
    auto it = cardinality_.find(key);
    return it == cardinality_.end() ? std::nullopt
                                    : std::optional<double>(it->second);
  }
  std::optional<double> Dpc(const std::string& key) const {
    auto it = dpc_.find(key);
    return it == dpc_.end() ? std::nullopt
                            : std::optional<double>(it->second);
  }

  size_t num_dpc_hints() const { return dpc_.size(); }
  void Clear() {
    cardinality_.clear();
    dpc_.clear();
  }

 private:
  std::map<std::string, double> cardinality_;
  std::map<std::string, double> dpc_;
};

/// Histograms per (table, column).
class StatisticsCatalog {
 public:
  /// Builds (or rebuilds) the histogram for one column.
  Status Build(DiskManager* disk, const Table& table, int col,
               int num_buckets = 100);

  /// Builds histograms for every INT64 column of the table.
  Status BuildAll(DiskManager* disk, const Table& table,
                  int num_buckets = 100);

  const Histogram* Get(const Table& table, int col) const;

 private:
  std::map<std::pair<const Table*, int>, Histogram> histograms_;
};

/// Row-count estimation with hint overrides.
class CardinalityEstimator {
 public:
  CardinalityEstimator(const StatisticsCatalog* stats,
                       const OptimizerHints* hints)
      : stats_(stats), hints_(hints) {}

  /// Estimated rows of `table` satisfying `pred`. Hint for the canonical
  /// key wins; otherwise atom selectivities multiplied (independence).
  double EstimateRows(const Table& table, const Predicate& pred) const;

  /// Selectivity in [0,1] of one atom.
  double AtomSelectivity(const Table& table, const PredicateAtom& atom) const;

  /// Join cardinality for a.col_a = b.col_b given filtered input sizes.
  double EstimateJoinRows(const Table& a, double a_rows, int col_a,
                          const Table& b, double b_rows, int col_b) const;

  const StatisticsCatalog* stats() const { return stats_; }
  const OptimizerHints* hints() const { return hints_; }

 private:
  const StatisticsCatalog* stats_;
  const OptimizerHints* hints_;
};

}  // namespace dpcf
