// Exact page counting under the grouped-page-access property (paper III-B).
//
// In a scan plan all rows of a page are processed consecutively and the page
// is never revisited, so DPC(T, p) needs no duplicate elimination: keep one
// counter, and per page one flag recording whether any row satisfied p.

#pragma once

#include <cstdint>

namespace dpcf {

/// One counter + one per-page flag. Drive it page by page:
///   BeginPage(); { OnRowSatisfies() for each satisfying row } EndPage();
class GroupedPageCounter {
 public:
  void BeginPage() { page_flag_ = false; }

  void OnRowSatisfies() {
    page_flag_ = true;
    ++rows_satisfying_;
  }

  /// Batch form: `n` rows of the current page satisfy p. Equivalent to n
  /// OnRowSatisfies() calls (n == 0 leaves the page flag untouched) — the
  /// fold point of the vectorized scan's per-page monitor feed.
  void OnBatchSatisfies(int64_t n) {
    if (n > 0) page_flag_ = true;
    rows_satisfying_ += n;
  }

  void EndPage() {
    ++pages_seen_;
    if (page_flag_) ++pages_satisfying_;
    page_flag_ = false;
  }

  /// Exact DPC(T, p) over the pages processed so far.
  int64_t pages_satisfying() const { return pages_satisfying_; }
  int64_t rows_satisfying() const { return rows_satisfying_; }
  int64_t pages_seen() const { return pages_seen_; }

  /// Folds a counter that processed a *disjoint* set of pages into this
  /// one. Under the grouped-page-access property each page is processed by
  /// exactly one worker, so per-worker counts add without duplicate
  /// elimination — the merged totals equal a single counter driven over
  /// the union of the pages. Both counters must be between pages (no open
  /// BeginPage).
  void MergeFrom(const GroupedPageCounter& o) {
    pages_satisfying_ += o.pages_satisfying_;
    rows_satisfying_ += o.rows_satisfying_;
    pages_seen_ += o.pages_seen_;
  }

  void Reset() { *this = GroupedPageCounter(); }

 private:
  bool page_flag_ = false;
  int64_t pages_satisfying_ = 0;
  int64_t rows_satisfying_ = 0;
  int64_t pages_seen_ = 0;
};

}  // namespace dpcf
