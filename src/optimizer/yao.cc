#include "optimizer/yao.h"

#include <algorithm>

namespace dpcf {

double YaoEstimate(int64_t pages, int64_t rows_per_page,
                   int64_t qualifying_rows) {
  if (pages <= 0 || rows_per_page <= 0 || qualifying_rows <= 0) return 0;
  const double n = static_cast<double>(pages) * rows_per_page;
  const double k = static_cast<double>(qualifying_rows);
  if (k >= n) return static_cast<double>(pages);
  // C(N-m, k)/C(N, k) = prod_{i=0..m-1} (N-k-i)/(N-i).
  double miss_prob = 1.0;
  for (int64_t i = 0; i < rows_per_page; ++i) {
    double denom = n - static_cast<double>(i);
    double numer = n - k - static_cast<double>(i);
    if (numer <= 0) {
      miss_prob = 0;
      break;
    }
    miss_prob *= numer / denom;
  }
  return static_cast<double>(pages) * (1.0 - miss_prob);
}

int64_t PageCountLowerBound(int64_t rows_per_page, int64_t qualifying_rows) {
  if (qualifying_rows <= 0 || rows_per_page <= 0) return 0;
  return (qualifying_rows + rows_per_page - 1) / rows_per_page;
}

int64_t PageCountUpperBound(int64_t pages, int64_t qualifying_rows) {
  return std::max<int64_t>(0, std::min(pages, qualifying_rows));
}

}  // namespace dpcf
