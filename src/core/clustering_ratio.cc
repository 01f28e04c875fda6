#include "core/clustering_ratio.h"

#include "core/feedback_driver.h"
#include "optimizer/yao.h"

namespace dpcf {

Result<ClusteringRatioResult> ComputeClusteringRatio(DiskManager* disk,
                                                     const Table& table,
                                                     const Predicate& pred) {
  ClusteringRatioResult r;
  // A page counts when at least one of its rows passes.
  ForEachRawPageMatch(disk, table, pred,
                      [&](PageNo, const RowBlock&,
                          std::span<const uint32_t> sel) {
                        r.qualifying_rows += static_cast<int64_t>(sel.size());
                        if (!sel.empty()) ++r.actual_pages;
                      });
  r.lower_bound =
      PageCountLowerBound(table.rows_per_page(), r.qualifying_rows);
  r.upper_bound = PageCountUpperBound(table.page_count(), r.qualifying_rows);
  if (r.upper_bound > r.lower_bound) {
    r.ratio = static_cast<double>(r.actual_pages - r.lower_bound) /
              static_cast<double>(r.upper_bound - r.lower_bound);
  }
  return r;
}

}  // namespace dpcf
