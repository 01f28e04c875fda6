// Scan plans: the heap scan (a full scan, or a key range of a clustered
// table) and the covering-index scan. Heap scans are the storage-engine
// operators with the grouped-page-access property (paper Fig 2), so their
// page-count monitoring is exact (prefix expressions) or DPSample-based
// (everything else).
//
// Every heap scan runs the same page step, HeapPageStep: the serial
// TableScanOp (full or clustered range) and each morsel-parallel worker of
// ParallelTableScanOp (exec/parallel_scan.h) fetch a page, Eval it, Observe
// it, and emit its survivors. They differ only in when Observe runs.

#pragma once

#include <memory>
#include <optional>

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

/// The one heap-scan page step (DESIGN.md section 12). Immutable after
/// construction: every worker of a scan shares one step and brings its own
/// Scratch.
///
/// Two equivalent evaluators, selected by `vectorized`:
///  * batch (default): PredicateKernel::EvalBatch over a selection vector,
///    and the monitors ingest the whole page via ObserveBatch;
///  * row-at-a-time: EvalLeading and OnRow per row, the oracle the
///    property sweeps compare the batch evaluator against.
/// Both produce identical survivors, CpuStats charges and monitor feedback.
class HeapPageStep {
 public:
  /// One worker's view of the page it is on.
  struct Scratch {
    explicit Scratch(const Schema* schema) : block(schema) {}
    RowBlock block;                 // the rows Eval bound (after the cut)
    std::vector<uint32_t> sel;      // survivors: sel[0..Eval's result)
    std::vector<uint32_t> leading;  // leading-true atom count per row
    bool cut = false;               // the page held a key past the cutoff
    LogHistogram* batch_rows = nullptr;  // BatchRowsHistogram, may be null
  };

  /// `monitored`: Observe will be called, so the batch evaluator must keep
  /// leading[]. `cutoff_hi`: the scan is a clustered range ending at this
  /// clustering key, and each page is cut at its first key past it.
  HeapPageStep(const Table& table, Predicate pushed, bool vectorized,
               bool monitored,
               std::optional<int64_t> cutoff_hi = std::nullopt);

  const Predicate& pushed() const { return pushed_; }
  bool vectorized() const { return vectorized_; }

  /// The dpcf_scan_batch_rows histogram of `ctx`'s registry (rows per
  /// batch, one batch per page); null without a registry or when the step
  /// evaluates row-at-a-time.
  LogHistogram* BatchRowsHistogram(const ExecContext& ctx) const;

  /// Binds the pinned page image `page` to s->block, cut at the first
  /// clustering key past the cutoff (the sorted-key early exit; the key
  /// probe is uncharged), evaluates the pushed conjunction over the bound
  /// rows and charges rows_processed. Returns the survivor count.
  uint32_t Eval(const char* page, CpuStats* cpu, Scratch* s) const;

  /// Feeds the rows Eval bound to `monitors` as page `page_no`:
  /// BeginPage, ObserveBatch, EndPage. No-op for null `monitors`.
  void Observe(PageNo page_no, ScanMonitorBundle* monitors, CpuStats* cpu,
               const std::vector<const BitvectorFilter*>& filter_slots,
               Scratch* s) const;

 private:
  const Schema* schema_;
  Predicate pushed_;
  PredicateKernel kernel_;
  const SimdOps* simd_;  // for the cutoff probe, snapshotted like kernel_
  std::optional<int64_t> cutoff_hi_;
  size_t key_col_ = 0;   // the clustering column, when cut
  bool vectorized_;
  bool monitored_;
};

/// A key range [lo, hi] on a clustered table's clustering column.
struct ClusteredRange {
  Index* index = nullptr;  // the clustered-key index seeked for lo
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Sequential scan of a heap or clustered table with a pushed-down,
/// short-circuited conjunction and optional page-count monitoring.
///
/// With a `range` it is a clustered range scan: Open seeks the
/// clustered-key index for the first data page holding a key >= lo, and
/// the scan ends with the page whose keys pass hi. The pushed conjunction
/// must include the range atoms (boundary pages carry out-of-range rows).
///
/// The scan is pipelined. It evaluates a page when it opens it, emits the
/// survivors one Next() at a time, and observes the page when it leaves it
/// (at the next fetch, or at Close for an abandoned scan). Observing on
/// leave is what makes a merge join's partial bitvector exact: by then the
/// join has consumed every outer key up to the page's last key.
///
/// As a hash join's probe child it takes the join's key table
/// (SetJoinKeyFilter) and drops each page's survivors whose key the table
/// does not match before they become tuples: the derived semi-join
/// predicate of paper Fig 5, evaluated inside the scan. Observe still sees
/// the whole page.
class TableScanOp : public Operator {
 public:
  TableScanOp(Table* table, Predicate pushed, std::vector<int> projection,
              std::unique_ptr<ScanMonitorBundle> monitors = nullptr,
              bool vectorized = true,
              std::optional<ClusteredRange> range = std::nullopt);

  std::string Describe() const override;
  void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const override;
  /// Takes `keys` when `key_idx` projects an INT64 column; otherwise
  /// takes nothing.
  void SetJoinKeyFilter(const JoinHashTable* keys, int key_idx) override;

  const ScanMonitorBundle* monitors() const { return monitors_.get(); }
  bool vectorized() const { return step_.vectorized(); }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  /// Observes the open page and unpins it.
  void LeavePage(ExecContext* ctx);

  /// Compacts scratch_.sel[0..survivors) to the rows whose key join_keys_
  /// matches, in order, and charges the dropped ones. Returns the count.
  uint32_t KeepJoinMatches(uint32_t survivors, CpuStats* cpu);

  Table* table_;
  std::vector<int> projection_;
  std::unique_ptr<ScanMonitorBundle> monitors_;
  std::optional<ClusteredRange> range_;
  const HeapPageStep step_;
  HeapPageStep::Scratch scratch_;
  const JoinHashTable* join_keys_ = nullptr;  // see SetJoinKeyFilter
  size_t join_key_col_ = 0;                   // its table column

  PageGuard guard_;
  PageNo page_idx_ = 0;
  uint32_t sel_pos_ = 0;  // next survivor of the open page to emit
  uint32_t sel_count_ = 0;
  bool page_open_ = false;
  bool done_ = false;
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
