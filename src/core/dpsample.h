// Scan-side page-count monitoring: exact prefix counting and the DPSample
// Bernoulli page-sampling algorithm (paper Fig 4).
//
// A scan plan is given a set of *requested expressions* — the predicate
// expressions whose distinct page counts the optimizer would need to cost
// alternative index plans. The bundle classifies each request:
//
//  * a prefix of the pushed-down conjunction: satisfied-row knowledge falls
//    out of the scan's own short-circuit evaluation, so counting is exact
//    and free (one flag + one counter);
//  * anything else (non-prefix sub-expressions, other columns, derived
//    semi-join predicates from a bitvector filter): evaluated only on a
//    Bernoulli sample of pages — short-circuiting is "turned off" only for
//    rows on sampled pages, bounding the overhead. The estimator
//    PageCount/f is unbiased with Chernoff-style concentration.
//
// The Bernoulli draw is a *deterministic function of (page number, seed)*
// rather than a sequential RNG stream: whether a page is sampled must not
// depend on the order pages happen to be visited in, so a morsel-parallel
// scan (any page-to-worker assignment) samples exactly the same pages as
// the serial scan and merged estimates are bit-for-bit identical.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/bitvector_filter.h"
#include "core/grouped_page_counter.h"
#include "exec/predicate.h"
#include "exec/predicate_kernel.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace dpcf {

/// One expression whose DPC should be monitored during a scan.
struct ScanExprRequest {
  /// Feedback-store key, e.g. "T: C3<250000" or "T: JOIN(T.C2=T1.C1)".
  std::string label;
  /// Conjunction of atoms on the scanned table (may be empty when the
  /// request is purely a bitvector semi-join predicate).
  Predicate expr;
  /// When >= 0, the request additionally demands that the value of column
  /// `bv_col` hashes into the bitvector filter registered in this
  /// ExecContext slot (Hash/Merge-join page counting, paper Fig 5).
  int bitvector_slot = -1;
  int bv_col = -1;
};

enum class ScanMonitorMode : uint8_t {
  kPrefixExact,  // free: derived from the scan's own evaluation
  kFullExact,    // every page inspected (sample fraction 1.0)
  kSampled,      // DPSample with f < 1
};

const char* ScanMonitorModeName(ScanMonitorMode mode);

/// Outcome of one monitored expression after the scan completes.
struct ScanExprResult {
  std::string label;
  std::string expr_text;
  ScanMonitorMode mode = ScanMonitorMode::kPrefixExact;
  double sample_fraction = 1.0;
  /// Estimated (exact when mode != kSampled) distinct page count.
  double dpc = 0;
  /// Estimated (exact when mode != kSampled) satisfying-row count.
  double cardinality = 0;
  int64_t pages_seen = 0;
  int64_t pages_sampled = 0;
};

/// Per-scan monitor state. Drive it in lockstep with the scan:
///   BeginPage(page_no) / OnRow(row, leading_true) per row / EndPage(),
/// then Finish() once the scan ends.
///
/// Bundles are *mergeable sketches*: a parallel scan gives every worker a
/// Clone() and folds the thread-local bundles back with MergeFrom() at
/// close. Because each page is processed by exactly one worker and the
/// sampling decision is a pure function of (page_no, seed), the merged
/// results are identical to one bundle driven serially over all pages.
class ScanMonitorBundle {
 public:
  /// `pushed` is the scan's own conjunction (used for prefix detection;
  /// the bundle keeps a copy), `sample_fraction` the DPSample f used for
  /// all non-prefix requests.
  ScanMonitorBundle(Predicate pushed, const Schema* schema,
                    double sample_fraction, uint64_t seed);

  Status AddRequest(ScanExprRequest request);

  /// A fresh bundle with the same configuration and requests but zeroed
  /// counters — one per scan worker.
  std::unique_ptr<ScanMonitorBundle> Clone() const;

  /// Folds `other` (same configuration, disjoint pages) into this bundle:
  /// GroupedPageCounters merge by summing disjoint page/row counts, the
  /// page tallies by addition. Fails if the bundles were configured
  /// differently or a page is still open in either.
  Status MergeFrom(const ScanMonitorBundle& other);

  /// `page_no`: the page about to be scanned; the Bernoulli sampling draw
  /// is Hash(page_no, seed) < f, independent of visit order.
  void BeginPage(CpuStats* cpu, PageNo page_no);
  /// `leading_true`: how many leading atoms of the pushed conjunction the
  /// scan's own (short-circuited) evaluation found TRUE for this row.
  /// `filter_slots` resolves bitvector slot references; entries may be
  /// null until the corresponding join build phase has run.
  void OnRow(const RowView& row, uint32_t leading_true, CpuStats* cpu,
             const std::vector<const BitvectorFilter*>& filter_slots);
  void EndPage();

  /// Batch form of OnRow for the vectorized scan: observes ALL rows of the
  /// current page at once, between BeginPage and EndPage. `leading` holds
  /// block->size() entries, leading[r] = leading-true atom count of the
  /// pushed conjunction for row r (the EvalBatch output). Counter state,
  /// CpuStats charges, and sampling behaviour are bit-for-bit identical to
  /// calling OnRow once per row in slot order: prefix-exact entries charge
  /// one monitor_row_op per row, sampled entries evaluate their compiled
  /// kernel densely (every atom on every row, charged) on sampled pages
  /// only, and bitvector entries charge one monitor_hash_op per row and
  /// probe the filter only for rows whose expression passed.
  void ObserveBatch(RowBlock* block, const uint32_t* leading, CpuStats* cpu,
                    const std::vector<const BitvectorFilter*>& filter_slots);

  std::vector<ScanExprResult> Finish() const;

 private:
  struct Entry {
    ScanExprRequest request;
    ScanMonitorMode mode;
    size_t prefix_len = 0;  // for kPrefixExact
    /// Batch comparators for the requested expression; compiled at
    /// AddRequest for non-prefix entries (prefix entries never evaluate).
    PredicateKernel kernel;
    GroupedPageCounter counter;
  };

  Predicate pushed_;
  const Schema* schema_;
  double sample_fraction_;
  uint64_t seed_;
  std::vector<Entry> entries_;
  /// Per-row pass bitmap reused across ObserveBatch calls (bundles are
  /// thread-local, so no synchronization is needed).
  std::vector<uint8_t> pass_scratch_;
  bool page_open_ = false;
  bool page_sampled_ = false;
  int64_t pages_seen_ = 0;
  int64_t pages_sampled_ = 0;
};

}  // namespace dpcf
