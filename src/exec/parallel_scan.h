// Morsel-parallel heap/clustered scan. The table's page range is cut into
// fixed-size morsels dispatched from an atomic work queue (MorselQueue);
// N workers each scan their claimed morsels with a thread-local
// ScanMonitorBundle clone and thread-local CpuStats, and the per-worker
// state comes back through the join and is folded in (MergeFrom /
// operator+=) once every worker has ended.
// Every worker runs the serial scan's page step: one shared, const
// HeapPageStep (exec/scan_ops.h) and a worker-local Scratch, calling Eval
// and Observe back to back on each page.
//
// Equivalence guarantees relative to TableScanOp on the same table:
//  * identical output tuples in identical order — matches are buffered per
//    morsel and drained in morsel order, which is page order;
//  * bit-for-bit identical monitor feedback — each page is processed by
//    exactly one worker, GroupedPageCounter merges by summing disjoint
//    page/row counts, and the DPSample Bernoulli draw is a pure function
//    of (page_no, seed), so the sampled page set cannot depend on the
//    page-to-worker assignment.

#pragma once

#include <memory>
#include <vector>

#include "core/dpsample.h"
#include "exec/operator.h"
#include "exec/scan_ops.h"
#include "table/catalog.h"

namespace dpcf {

struct ParallelScanOptions {
  /// Worker threads; <= 1 degenerates to an inline serial scan (no thread
  /// is spawned).
  int num_threads = 1;
  /// Pages per morsel. Small enough to balance load across workers, large
  /// enough that queue traffic is negligible next to page work.
  uint32_t morsel_pages = 32;
  /// Readahead window: the scan keeps pages submitted through
  /// BufferPool::PrefetchBatch (scheduled on the disk's device channels)
  /// up to this many pages past the pages its workers have finished,
  /// clamped to half the pool so prefetch can never evict pages the scan
  /// still needs. Open submits the first window before any worker starts;
  /// after that each worker that finishes a morsel submits the pages that
  /// moved the frontier, as one batch. No thread is added. Prefetched
  /// pages are charged to IoStats::prefetch_reads, not physical reads,
  /// and readahead never touches monitors, so feedback stays bit-for-bit
  /// identical to the serial scan. 0 disables readahead.
  uint32_t prefetch_pages = 0;
  /// Evaluate predicates with the vectorized PredicateKernel per page and
  /// feed monitors via ObserveBatch (DESIGN.md section 12). Off = the page
  /// step's row-at-a-time oracle. Both produce identical tuples, CpuStats,
  /// and monitor feedback.
  bool vectorized = true;
};

/// Parallel counterpart of TableScanOp. Open() runs the whole scan to
/// completion across the worker pool (a scan is a pipeline breaker here;
/// the Volcano surface stays single-threaded), Next() drains the buffered
/// result in serial page order.
class ParallelTableScanOp : public Operator {
 public:
  ParallelTableScanOp(Table* table, Predicate pushed,
                      std::vector<int> projection,
                      std::unique_ptr<ScanMonitorBundle> monitors,
                      ParallelScanOptions options);

  std::string Describe() const override;
  void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const override;

  const ScanMonitorBundle* monitors() const { return monitors_.get(); }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  Table* table_;
  std::vector<int> projection_;
  std::unique_ptr<ScanMonitorBundle> monitors_;
  ParallelScanOptions options_;
  const HeapPageStep step_;  // shared by every worker

  /// Matches buffered per morsel; drained in morsel order so the output
  /// sequence is identical to the serial scan's.
  std::vector<std::vector<Tuple>> morsel_out_;
  size_t drain_morsel_ = 0;
  size_t drain_row_ = 0;
};

}  // namespace dpcf
