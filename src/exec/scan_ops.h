// Scan plans: heap / clustered-index scan, clustered range scan, and
// covering-index scan. These are the storage-engine operators with the
// grouped-page-access property (paper Fig 2), so their page-count monitoring
// is exact (prefix expressions) or DPSample-based (everything else).

#pragma once

#include <memory>

#include "core/dpsample.h"
#include "exec/operator.h"
#include "exec/predicate_kernel.h"
#include "exec/simd.h"
#include "index/secondary_index.h"
#include "table/catalog.h"

namespace dpcf {

class LogHistogram;  // obs/metrics_registry.h

/// Copies the `projection` columns of `row` into `out`: the one tuple
/// materialization every heap scan (serial, range, parallel) shares.
inline void MaterializeProjection(const RowView& row,
                                  const std::vector<int>& projection,
                                  Tuple* out) {
  out->clear();
  out->reserve(projection.size());
  for (int col : projection) {
    out->push_back(row.GetValue(static_cast<size_t>(col)));
  }
}

/// Appends one MonitorRecord per expression `monitors` tracked over
/// `table`; no-op for an unmonitored scan (null `monitors`). The one
/// record builder every heap scan's CollectOwnMonitorRecords shares.
void AppendScanMonitorRecords(const Table& table,
                              const ScanMonitorBundle* monitors,
                              std::vector<MonitorRecord>* out);

/// Full sequential scan of a heap or clustered table with a pushed-down,
/// short-circuited conjunction and optional page-count monitoring.
///
/// Two equivalent evaluation paths (DESIGN.md section 12):
///  * vectorized (default): per page, a PredicateKernel evaluates the
///    conjunction over a selection vector and the monitors ingest the whole
///    page at once via ObserveBatch;
///  * row-at-a-time (`vectorized = false`): the original EvalLeading/OnRow
///    loop, kept as the oracle the property sweep compares against.
/// Both produce identical tuples, CpuStats, and monitor feedback.
class TableScanOp : public Operator {
 public:
  TableScanOp(Table* table, Predicate pushed, std::vector<int> projection,
              std::unique_ptr<ScanMonitorBundle> monitors = nullptr,
              bool vectorized = true);

  std::string Describe() const override;
  void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const override;

  const ScanMonitorBundle* monitors() const { return monitors_.get(); }
  bool vectorized() const { return vectorized_; }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  Result<bool> NextRowAtATime(ExecContext* ctx, Tuple* out);
  Result<bool> NextVectorized(ExecContext* ctx, Tuple* out);

  Table* table_;
  Predicate pushed_;
  std::vector<int> projection_;
  std::unique_ptr<ScanMonitorBundle> monitors_;
  bool vectorized_;

  PageGuard guard_;
  PageNo page_idx_ = 0;
  uint32_t row_idx_ = 0;
  uint32_t rows_in_page_ = 0;
  bool page_open_ = false;
  bool done_ = false;

  // Vectorized-path state: the compiled kernel, the per-page block view,
  // and the current page's survivors (sel_[sel_pos_..sel_count_)).
  PredicateKernel kernel_;
  RowBlock block_;
  std::vector<uint32_t> sel_;
  std::vector<uint32_t> leading_;
  uint32_t sel_pos_ = 0;
  uint32_t sel_count_ = 0;
  LogHistogram* batch_rows_hist_ = nullptr;  // resolved at Open, may be null
};

/// Range scan of a clustered table: seeks the clustered-key index for the
/// first data page of [lo, hi] on the clustering column and scans data pages
/// sequentially until the key range is exhausted. The pushed conjunction
/// must include the range atoms (boundary pages carry out-of-range rows).
///
/// Like TableScanOp it has two equivalent paths. The vectorized one treats
/// each data page as a key-ordered clustering-leaf run: the page's rows are
/// bound to a RowBlock *truncated at the first out-of-range key* (found by
/// the SIMD run-cutoff primitive, uncharged — the row path's key peek is
/// uncharged too), then evaluated/observed as one batch. The sorted-key
/// early exit therefore fires at the same row, and monitored feedback,
/// DPSample draws, charges and tuples are bit-for-bit identical to the
/// row-at-a-time oracle (tests/simd_dispatch_test.cc proves it).
class ClusteredRangeScanOp : public Operator {
 public:
  ClusteredRangeScanOp(Table* table, Index* cluster_index, int64_t lo,
                       int64_t hi, Predicate pushed,
                       std::vector<int> projection,
                       std::unique_ptr<ScanMonitorBundle> monitors = nullptr,
                       bool vectorized = true);

  std::string Describe() const override;
  void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const override;

  bool vectorized() const { return vectorized_; }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  Result<bool> NextRowAtATime(ExecContext* ctx, Tuple* out);
  Result<bool> NextVectorized(ExecContext* ctx, Tuple* out);

  Table* table_;
  Index* cluster_index_;
  int64_t lo_;
  int64_t hi_;
  int cluster_col_;
  Predicate pushed_;
  std::vector<int> projection_;
  std::unique_ptr<ScanMonitorBundle> monitors_;
  bool vectorized_;

  PageGuard guard_;
  PageNo page_idx_ = 0;
  uint32_t row_idx_ = 0;
  uint32_t rows_in_page_ = 0;
  bool page_open_ = false;
  bool done_ = false;

  // Vectorized-path state (see TableScanOp): current page's leaf run bound
  // to block_, survivors in sel_[sel_pos_..sel_count_). truncated_ means
  // the run hit the range's upper bound and the scan ends with this page.
  PredicateKernel kernel_;
  const SimdOps* simd_;
  RowBlock block_;
  std::vector<uint32_t> sel_;
  std::vector<uint32_t> leading_;
  uint32_t sel_pos_ = 0;
  uint32_t sel_count_ = 0;
  bool truncated_ = false;
  LogHistogram* batch_rows_hist_ = nullptr;  // resolved at Open, may be null
};

/// Scan of index leaf pages for queries whose referenced columns are all
/// index key columns. Emits projected key columns; atoms must reference key
/// columns only. Cannot observe base-table page counts (it never touches
/// the table), which is why the paper's monitors target the other plans.
class CoveringIndexScanOp : public Operator {
 public:
  /// `projection` and predicate atoms use *table* column indexes, which
  /// must appear in index->key_cols().
  CoveringIndexScanOp(Index* index, Predicate pushed,
                      std::vector<int> projection);

  std::string Describe() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  /// Evaluates the pushed atoms against the current index entry.
  bool EvalEntry(const BtreeKey& key, CpuStats* cpu) const;

  Index* index_;
  Predicate pushed_;
  std::vector<int> projection_;
  BtreeIterator it_;
  bool done_ = false;
};

}  // namespace dpcf
