#include "core/clustering_ratio.h"

#include "optimizer/yao.h"

namespace dpcf {

Result<ClusteringRatioResult> ComputeClusteringRatio(DiskManager* disk,
                                                     const Table& table,
                                                     const Predicate& pred) {
  ClusteringRatioResult r;
  PageNo last_hit = kInvalidPageNo;
  table.file()->ForEachRawRow(disk, [&](PageNo p, uint16_t,
                                        const RowView& row) {
    if (!pred.Matches(row)) return;
    ++r.qualifying_rows;
    if (p != last_hit) ++r.actual_pages;  // pages arrive in order
    last_hit = p;
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
