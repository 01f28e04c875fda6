// Analytical distinct-page-count estimation (Yao / Mackert–Lohman style).
//
// This is "today's query optimizer" that the paper diagnoses: given a table
// of P pages with m rows per page and k qualifying rows, the expected number
// of distinct pages touched is computed under the assumption that qualifying
// rows are spread *uniformly at random* across pages — i.e. the predicate
// column is independent of the physical clustering. Example 1 in the paper
// is exactly the case where this assumption is wrong by orders of magnitude.

#pragma once

#include <cstdint>

namespace dpcf {

/// Yao's formula: E[pages] = P * (1 - C(N-m, k) / C(N, k)), with N = P*m.
/// Exact under the random-spread assumption; O(m) evaluation.
double YaoEstimate(int64_t pages, int64_t rows_per_page,
                   int64_t qualifying_rows);

/// Lower bound ceil(k/m) and upper bound min(k, P) on the true page count
/// (used by the Clustering Ratio, paper Section V-B.2).
int64_t PageCountLowerBound(int64_t rows_per_page, int64_t qualifying_rows);
int64_t PageCountUpperBound(int64_t pages, int64_t qualifying_rows);

}  // namespace dpcf
