#include "exec/scan_ops.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"
#include "obs/metrics_registry.h"

namespace dpcf {

void AppendScanMonitorRecords(const Table& table,
                              const ScanMonitorBundle* monitors,
                              std::vector<MonitorRecord>* out) {
  if (monitors == nullptr) return;
  for (const ScanExprResult& r : monitors->Finish()) {
    MonitorRecord rec;
    rec.table = table.name();
    rec.label = r.label;
    rec.expr_text = r.expr_text;
    rec.mechanism =
        r.mode == ScanMonitorMode::kSampled
            ? StrFormat("dpsample(f=%s)",
                        FormatDouble(r.sample_fraction, 4).c_str())
            : ScanMonitorModeName(r.mode);
    rec.actual_dpc = r.dpc;
    rec.actual_cardinality = r.cardinality;
    rec.exact = r.mode != ScanMonitorMode::kSampled;
    out->push_back(std::move(rec));
  }
}

TableScanOp::TableScanOp(Table* table, Predicate pushed,
                         std::vector<int> projection,
                         std::unique_ptr<ScanMonitorBundle> monitors,
                         bool vectorized)
    : table_(table),
      pushed_(std::move(pushed)),
      projection_(std::move(projection)),
      monitors_(std::move(monitors)),
      vectorized_(vectorized),
      kernel_(pushed_, &table->schema()),
      block_(&table->schema()) {}

Status TableScanOp::OpenImpl(ExecContext* ctx) {
  page_idx_ = 0;
  row_idx_ = 0;
  rows_in_page_ = 0;
  page_open_ = false;
  done_ = false;
  sel_pos_ = 0;
  sel_count_ = 0;
  batch_rows_hist_ =
      vectorized_ && ctx->metrics() != nullptr
          ? ctx->metrics()->GetHistogram(
                "dpcf_scan_batch_rows",
                "rows per vectorized predicate batch (one batch per page)",
                1.0, 2.0, 12)
          : nullptr;
  return Status::OK();
}

Result<bool> TableScanOp::NextImpl(ExecContext* ctx, Tuple* out) {
  return vectorized_ ? NextVectorized(ctx, out) : NextRowAtATime(ctx, out);
}

Result<bool> TableScanOp::NextRowAtATime(ExecContext* ctx, Tuple* out) {
  if (done_) return false;
  const HeapFile* file = table_->file();
  const Schema* schema = &table_->schema();
  CpuStats* cpu = ctx->cpu();
  const uint32_t num_atoms = static_cast<uint32_t>(pushed_.size());
  while (true) {
    if (!page_open_) {
      if (page_idx_ >= file->page_count()) {
        done_ = true;
        return false;
      }
      auto guard = ctx->pool()->Fetch(PageId{file->segment(), page_idx_});
      if (!guard.ok()) return guard.status();
      guard_ = std::move(guard).value();
      rows_in_page_ = HeapFile::PageRowCount(guard_.data());
      row_idx_ = 0;
      page_open_ = true;
      if (monitors_ != nullptr) monitors_->BeginPage(cpu, page_idx_);
    }
    // oracle: the row-at-a-time reference path the vectorized kernel is
    // verified against.
    while (row_idx_ < rows_in_page_) {
      RowView row(file->RowInPage(guard_.data(),
                                  static_cast<uint16_t>(row_idx_)),
                  schema);
      ++row_idx_;
      ++cpu->rows_processed;
      uint32_t leading = pushed_.EvalLeading(row, cpu);
      if (monitors_ != nullptr) {
        monitors_->OnRow(row, leading, cpu, ctx->filter_slots());
      }
      if (leading == num_atoms) {
        MaterializeProjection(row, projection_, out);
        return true;
      }
    }
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
    ++page_idx_;
  }
}

Result<bool> TableScanOp::NextVectorized(ExecContext* ctx, Tuple* out) {
  if (done_) return false;
  const HeapFile* file = table_->file();
  const Schema* schema = &table_->schema();
  CpuStats* cpu = ctx->cpu();
  while (true) {
    if (!page_open_) {
      if (page_idx_ >= file->page_count()) {
        done_ = true;
        return false;
      }
      auto guard = ctx->pool()->Fetch(PageId{file->segment(), page_idx_});
      if (!guard.ok()) return guard.status();
      guard_ = std::move(guard).value();
      rows_in_page_ = HeapFile::PageRowCount(guard_.data());
      page_open_ = true;
      if (monitors_ != nullptr) monitors_->BeginPage(cpu, page_idx_);
      // The whole page is evaluated and observed up front; survivors are
      // then emitted one Next() at a time from the selection vector.
      block_.Reset(HeapFile::PageRows(guard_.data()), rows_in_page_);
      sel_.resize(rows_in_page_);
      cpu->rows_processed += rows_in_page_;
      uint32_t* leading_out = nullptr;
      if (monitors_ != nullptr) {
        leading_.resize(rows_in_page_);
        leading_out = leading_.data();
      }
      sel_count_ = kernel_.EvalBatch(&block_, cpu, sel_.data(), leading_out);
      sel_pos_ = 0;
      if (monitors_ != nullptr) {
        monitors_->ObserveBatch(&block_, leading_out, cpu,
                                ctx->filter_slots());
      }
      if (batch_rows_hist_ != nullptr) {
        batch_rows_hist_->Observe(static_cast<double>(rows_in_page_));
      }
    }
    if (sel_pos_ < sel_count_) {
      RowView row(block_.row(sel_[sel_pos_]), schema);
      ++sel_pos_;
      MaterializeProjection(row, projection_, out);
      return true;
    }
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
    ++page_idx_;
  }
}

Status TableScanOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  // A drained scan already closed its last page; an abandoned one has not.
  if (page_open_) {
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
  }
  return Status::OK();
}

std::string TableScanOp::Describe() const {
  return StrFormat("%s(%s, %s)",
                   table_->organization() == TableOrganization::kClustered
                       ? "ClusteredIndexScan"
                       : "TableScan",
                   table_->name().c_str(),
                   pushed_.ToString(table_->schema()).c_str());
}

void TableScanOp::CollectOwnMonitorRecords(
    std::vector<MonitorRecord>* out) const {
  AppendScanMonitorRecords(*table_, monitors_.get(), out);
}

ClusteredRangeScanOp::ClusteredRangeScanOp(
    Table* table, Index* cluster_index, int64_t lo, int64_t hi,
    Predicate pushed, std::vector<int> projection,
    std::unique_ptr<ScanMonitorBundle> monitors, bool vectorized)
    : table_(table),
      cluster_index_(cluster_index),
      lo_(lo),
      hi_(hi),
      cluster_col_(table->cluster_key_col()),
      pushed_(std::move(pushed)),
      projection_(std::move(projection)),
      monitors_(std::move(monitors)),
      vectorized_(vectorized),
      kernel_(pushed_, &table->schema()),
      simd_(&ActiveSimdOps()),
      block_(&table->schema()) {
  assert(cluster_col_ >= 0 && "range scan requires a clustered table");
}

Status ClusteredRangeScanOp::OpenImpl(ExecContext* ctx) {
  row_idx_ = 0;
  rows_in_page_ = 0;
  page_open_ = false;
  done_ = false;
  sel_pos_ = 0;
  sel_count_ = 0;
  truncated_ = false;
  batch_rows_hist_ =
      vectorized_ && ctx->metrics() != nullptr
          ? ctx->metrics()->GetHistogram(
                "dpcf_scan_batch_rows",
                "rows per vectorized predicate batch (one batch per page)",
                1.0, 2.0, 12)
          : nullptr;
  // Locate the first data page holding a key >= lo via the clustered-key
  // index (charges the descent I/O, like a real clustered seek).
  DPCF_ASSIGN_OR_RETURN(BtreeIterator it,
                        cluster_index_->tree()->SeekFirst(BtreeKey::Min(lo_)));
  if (!it.Valid() || it.key().k1 > hi_) {
    done_ = true;
    return Status::OK();
  }
  page_idx_ = Rid::Unpack(it.aux()).page_no;
  return Status::OK();
}

Result<bool> ClusteredRangeScanOp::NextImpl(ExecContext* ctx, Tuple* out) {
  return vectorized_ ? NextVectorized(ctx, out) : NextRowAtATime(ctx, out);
}

Result<bool> ClusteredRangeScanOp::NextRowAtATime(ExecContext* ctx,
                                                  Tuple* out) {
  if (done_) return false;
  const HeapFile* file = table_->file();
  const Schema* schema = &table_->schema();
  CpuStats* cpu = ctx->cpu();
  const uint32_t num_atoms = static_cast<uint32_t>(pushed_.size());
  while (true) {
    if (!page_open_) {
      if (page_idx_ >= file->page_count()) {
        done_ = true;
        return false;
      }
      auto guard = ctx->pool()->Fetch(PageId{file->segment(), page_idx_});
      if (!guard.ok()) return guard.status();
      guard_ = std::move(guard).value();
      rows_in_page_ = HeapFile::PageRowCount(guard_.data());
      row_idx_ = 0;
      page_open_ = true;
      if (monitors_ != nullptr) monitors_->BeginPage(cpu, page_idx_);
    }
    // oracle: stays row-at-a-time — the sorted-key early exit below can
    // stop mid-page, and batch-observing the page up front would feed the
    // monitors rows the serial semantics never evaluates.
    while (row_idx_ < rows_in_page_) {
      RowView row(file->RowInPage(guard_.data(),
                                  static_cast<uint16_t>(row_idx_)),
                  schema);
      // Keys are sorted: past hi means the range (and the scan) is done.
      if (row.GetInt64(static_cast<size_t>(cluster_col_)) > hi_) {
        if (monitors_ != nullptr) monitors_->EndPage();
        guard_.Release();
        page_open_ = false;
        done_ = true;
        return false;
      }
      ++row_idx_;
      ++cpu->rows_processed;
      uint32_t leading = pushed_.EvalLeading(row, cpu);
      if (monitors_ != nullptr) {
        monitors_->OnRow(row, leading, cpu, ctx->filter_slots());
      }
      if (leading == num_atoms) {
        MaterializeProjection(row, projection_, out);
        return true;
      }
    }
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
    ++page_idx_;
  }
}

Result<bool> ClusteredRangeScanOp::NextVectorized(ExecContext* ctx,
                                                  Tuple* out) {
  if (done_) return false;
  const HeapFile* file = table_->file();
  const Schema* schema = &table_->schema();
  CpuStats* cpu = ctx->cpu();
  const size_t key_offset = schema->offset(static_cast<size_t>(cluster_col_));
  while (true) {
    if (!page_open_) {
      if (page_idx_ >= file->page_count()) {
        done_ = true;
        return false;
      }
      auto guard = ctx->pool()->Fetch(PageId{file->segment(), page_idx_});
      if (!guard.ok()) return guard.status();
      guard_ = std::move(guard).value();
      rows_in_page_ = HeapFile::PageRowCount(guard_.data());
      page_open_ = true;
      if (monitors_ != nullptr) monitors_->BeginPage(cpu, page_idx_);
      // Leaf-run adapter: a clustered data page *is* a key-ordered run of
      // the clustering leaf level, so binding the RowBlock truncated at
      // the first key past hi turns the sorted-key early exit into a
      // batch-size decision. The cutoff probe is uncharged, exactly like
      // the row path's key peek, and rows at/after the cutoff are never
      // evaluated or observed — same as the serial semantics.
      const char* rows = HeapFile::PageRows(guard_.data());
      const uint32_t run = simd_->int64_leading_le(
          rows, block_.row_stride(), key_offset, hi_, rows_in_page_);
      truncated_ = run < rows_in_page_;
      block_.Reset(rows, run);
      sel_.resize(run);
      cpu->rows_processed += run;
      uint32_t* leading_out = nullptr;
      if (monitors_ != nullptr) {
        leading_.resize(run);
        leading_out = leading_.data();
      }
      sel_count_ = kernel_.EvalBatch(&block_, cpu, sel_.data(), leading_out);
      sel_pos_ = 0;
      if (monitors_ != nullptr) {
        monitors_->ObserveBatch(&block_, leading_out, cpu,
                                ctx->filter_slots());
      }
      if (batch_rows_hist_ != nullptr) {
        batch_rows_hist_->Observe(static_cast<double>(run));
      }
    }
    if (sel_pos_ < sel_count_) {
      RowView row(block_.row(sel_[sel_pos_]), schema);
      ++sel_pos_;
      MaterializeProjection(row, projection_, out);
      return true;
    }
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
    if (truncated_) {
      // The run stopped at an out-of-range key: sorted order says no later
      // page can hold in-range rows.
      done_ = true;
      return false;
    }
    ++page_idx_;
  }
}

Status ClusteredRangeScanOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  if (page_open_) {
    if (monitors_ != nullptr) monitors_->EndPage();
    guard_.Release();
    page_open_ = false;
  }
  return Status::OK();
}

std::string ClusteredRangeScanOp::Describe() const {
  return StrFormat("ClusteredRangeScan(%s, %s in [%lld,%lld], %s)",
                   table_->name().c_str(),
                   table_->schema().column(
                       static_cast<size_t>(cluster_col_)).name.c_str(),
                   static_cast<long long>(lo_), static_cast<long long>(hi_),
                   pushed_.ToString(table_->schema()).c_str());
}

void ClusteredRangeScanOp::CollectOwnMonitorRecords(
    std::vector<MonitorRecord>* out) const {
  AppendScanMonitorRecords(*table_, monitors_.get(), out);
}

CoveringIndexScanOp::CoveringIndexScanOp(Index* index, Predicate pushed,
                                         std::vector<int> projection)
    : index_(index),
      pushed_(std::move(pushed)),
      projection_(std::move(projection)) {
#ifndef NDEBUG
  for (const PredicateAtom& a : pushed_.atoms()) {
    assert(index_->Covers({a.col()}) && "atom column not covered");
    assert(!a.is_string());
  }
  for (int c : projection_) assert(index_->Covers({c}));
#endif
}

Status CoveringIndexScanOp::OpenImpl(ExecContext* ctx) {
  (void)ctx;
  done_ = false;
  DPCF_ASSIGN_OR_RETURN(it_, index_->tree()->Begin());
  return Status::OK();
}

bool CoveringIndexScanOp::EvalEntry(const BtreeKey& key,
                                    CpuStats* cpu) const {
  for (const PredicateAtom& a : pushed_.atoms()) {
    ++cpu->predicate_atom_evals;
    int64_t v = a.col() == index_->key_cols()[0] ? key.k1 : key.k2;
    if (!a.EvalInt(v)) return false;
  }
  return true;
}

Result<bool> CoveringIndexScanOp::NextImpl(ExecContext* ctx, Tuple* out) {
  if (done_) return false;
  CpuStats* cpu = ctx->cpu();
  while (it_.Valid()) {
    BtreeKey key = it_.key();
    ++cpu->rows_processed;
    bool pass = EvalEntry(key, cpu);
    DPCF_RETURN_IF_ERROR(it_.Next());
    if (pass) {
      out->clear();
      out->reserve(projection_.size());
      for (int col : projection_) {
        out->push_back(Value::Int64(
            col == index_->key_cols()[0] ? key.k1 : key.k2));
      }
      return true;
    }
  }
  done_ = true;
  return false;
}

Status CoveringIndexScanOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  it_ = BtreeIterator();
  return Status::OK();
}

std::string CoveringIndexScanOp::Describe() const {
  return StrFormat("CoveringIndexScan(%s, %s)", index_->name().c_str(),
                   pushed_.ToString(index_->table()->schema()).c_str());
}

}  // namespace dpcf
