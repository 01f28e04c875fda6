#include "exec/scan_ops.h"

#include <cassert>
#include <cstddef>

#include "common/string_util.h"
#include "exec/join_hash_table.h"
#include "obs/metrics_registry.h"

namespace dpcf {

namespace {

constexpr size_t kCacheLineSize = 64;

}  // namespace

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

HeapPageStep::HeapPageStep(const Table& table, Predicate pushed,
                           bool vectorized, bool monitored,
                           std::optional<int64_t> cutoff_hi)
    : schema_(&table.schema()),
      pushed_(std::move(pushed)),
      kernel_(pushed_, schema_),
      simd_(&ActiveSimdOps()),
      cutoff_hi_(cutoff_hi),
      vectorized_(vectorized),
      monitored_(monitored) {
  if (cutoff_hi_.has_value()) {
    assert(table.cluster_key_col() >= 0 &&
           "a cut step requires a clustered table");
    key_col_ = static_cast<size_t>(table.cluster_key_col());
  }
}

LogHistogram* HeapPageStep::BatchRowsHistogram(const ExecContext& ctx) const {
  if (!vectorized_ || ctx.metrics() == nullptr) return nullptr;
  return ctx.metrics()->GetHistogram(
      "dpcf_scan_batch_rows",
      "rows per vectorized predicate batch (one batch per page)", 1.0, 2.0,
      12);
}

uint32_t HeapPageStep::Eval(const char* page, CpuStats* cpu,
                            Scratch* s) const {
  const uint32_t rows_in_page = HeapFile::PageRowCount(page);
  const char* rows = HeapFile::PageRows(page);
  s->block.Reset(rows, rows_in_page);
  // The image is the disk's own bytes, which no copy has pulled into this
  // core's caches: ask for every line of the rows up front so they arrive
  // in parallel, not one strided comparison at a time.
  const char* rows_end =
      rows + static_cast<size_t>(rows_in_page) * s->block.row_stride();
  for (const char* line = rows; line < rows_end; line += kCacheLineSize) {
    __builtin_prefetch(line);
  }
  s->sel.resize(rows_in_page);
  uint32_t n = rows_in_page;  // rows before the cut
  uint32_t survivors = 0;
  if (vectorized_) {
    // A clustered data page is a key-ordered run, so the sorted-key early
    // exit is a batch-size decision: rows at and after the first key past
    // hi are never evaluated or observed.
    if (cutoff_hi_.has_value()) {
      n = simd_->int64_leading_le(rows, s->block.row_stride(),
                                  schema_->offset(key_col_), *cutoff_hi_,
                                  rows_in_page);
      s->block.Reset(rows, n);
    }
    uint32_t* leading = nullptr;
    if (monitored_) {
      s->leading.resize(n);
      leading = s->leading.data();
    }
    survivors = kernel_.EvalBatch(&s->block, cpu, s->sel.data(), leading);
    if (s->batch_rows != nullptr) {
      s->batch_rows->Observe(static_cast<double>(n));
    }
  } else {
    // oracle: the row-at-a-time reference evaluator (EvalLeading here,
    // OnRow in Observe) the batch path is verified against.
    s->leading.resize(rows_in_page);
    const uint32_t num_atoms = static_cast<uint32_t>(pushed_.size());
    for (n = 0; n < rows_in_page; ++n) {
      RowView row(s->block.row(n), schema_);
      if (cutoff_hi_.has_value() && row.GetInt64(key_col_) > *cutoff_hi_) {
        break;
      }
      s->leading[n] = pushed_.EvalLeading(row, cpu);
      if (s->leading[n] == num_atoms) s->sel[survivors++] = n;
    }
    s->block.Reset(rows, n);
  }
  cpu->rows_processed += n;
  s->cut = n < rows_in_page;
  return survivors;
}

void HeapPageStep::Observe(
    PageNo page_no, ScanMonitorBundle* monitors, CpuStats* cpu,
    const std::vector<const BitvectorFilter*>& filter_slots,
    Scratch* s) const {
  if (monitors == nullptr) return;
  assert(monitored_ && "Eval kept no leading[] for an unmonitored step");
  monitors->BeginPage(cpu, page_no);
  if (vectorized_) {
    monitors->ObserveBatch(&s->block, s->leading.data(), cpu, filter_slots);
  } else {
    // The row oracle's monitor half (see Eval).
    for (uint32_t r = 0; r < s->block.size(); ++r) {
      monitors->OnRow(RowView(s->block.row(r), schema_), s->leading[r], cpu,
                      filter_slots);
    }
  }
  monitors->EndPage();
}

TableScanOp::TableScanOp(Table* table, Predicate pushed,
                         std::vector<int> projection,
                         std::unique_ptr<ScanMonitorBundle> monitors,
                         bool vectorized,
                         std::optional<ClusteredRange> range)
    : table_(table),
      projection_(std::move(projection)),
      monitors_(std::move(monitors)),
      range_(range),
      step_(*table, std::move(pushed), vectorized, monitors_ != nullptr,
            range.has_value() ? std::optional<int64_t>(range->hi)
                              : std::nullopt),
      scratch_(&table->schema()) {}

Status TableScanOp::OpenImpl(ExecContext* ctx) {
  page_idx_ = 0;
  sel_pos_ = 0;
  sel_count_ = 0;
  page_open_ = false;
  done_ = false;
  scratch_.batch_rows = step_.BatchRowsHistogram(*ctx);
  if (range_.has_value()) {
    // Locate the first data page holding a key >= lo via the clustered-key
    // index (charges the descent I/O, like a real clustered seek).
    DPCF_ASSIGN_OR_RETURN(
        BtreeIterator it,
        range_->index->tree()->SeekFirst(BtreeKey::Min(range_->lo)));
    done_ = !it.Valid() || it.key().k1 > range_->hi;
    if (!done_) page_idx_ = Rid::Unpack(it.aux()).page_no;
  }
  return Status::OK();
}

Result<bool> TableScanOp::NextImpl(ExecContext* ctx, Tuple* out) {
  const HeapFile* file = table_->file();
  while (!done_) {
    if (sel_pos_ < sel_count_) {
      RowView row(scratch_.block.row(scratch_.sel[sel_pos_++]),
                  &table_->schema());
      MaterializeProjection(row, projection_, out);
      return true;
    }
    if (page_open_) {
      LeavePage(ctx);
      // A cut page held a key past hi: sorted order says no later page
      // holds in-range rows.
      if (scratch_.cut) break;
      ++page_idx_;
    }
    if (page_idx_ >= file->page_count()) break;
    auto guard = ctx->pool()->Fetch(PageId{file->segment(), page_idx_});
    if (!guard.ok()) return guard.status();
    guard_ = std::move(guard).value();
    page_open_ = true;
    sel_count_ = step_.Eval(guard_.data(), ctx->cpu(), &scratch_);
    if (join_keys_ != nullptr) {
      sel_count_ = KeepJoinMatches(sel_count_, ctx->cpu());
    }
    sel_pos_ = 0;
  }
  done_ = true;
  return false;
}

void TableScanOp::SetJoinKeyFilter(const JoinHashTable* keys, int key_idx) {
  join_keys_ = nullptr;
  if (keys == nullptr || key_idx < 0 ||
      static_cast<size_t>(key_idx) >= projection_.size()) {
    return;
  }
  const auto col =
      static_cast<size_t>(projection_[static_cast<size_t>(key_idx)]);
  // The join reads a string key as Value::AsInt64(), not as the row's
  // bytes: such a probe is left to the join, row by row.
  if (table_->schema().column(col).type != ValueType::kInt64) return;
  join_keys_ = keys;
  join_key_col_ = col;
}

uint32_t TableScanOp::KeepJoinMatches(uint32_t survivors, CpuStats* cpu) {
  uint32_t* sel = scratch_.sel.data();
  auto key_of = [&](uint32_t r) {
    return RowView(scratch_.block.row(r), &table_->schema())
        .GetInt64(join_key_col_);
  };
  // Two passes, each compacting sel without a branch: the key filter
  // rejects most rows, and only what it passes walks the table's slots.
  uint32_t maybe = 0;
  for (uint32_t i = 0; i < survivors; ++i) {
    const uint32_t r = sel[i];
    sel[maybe] = r;
    maybe += join_keys_->MayContain(key_of(r)) ? 1 : 0;
  }
  uint32_t kept = 0;
  for (uint32_t i = 0; i < maybe; ++i) {
    const uint32_t r = sel[i];
    sel[kept] = r;
    kept += join_keys_->Find(key_of(r)).empty() ? 0 : 1;
  }
  // The join charges one probe per row it receives; these rows it never
  // receives are charged here, so the run's total is what it was.
  cpu->hash_table_ops += survivors - kept;
  return kept;
}

void TableScanOp::LeavePage(ExecContext* ctx) {
  step_.Observe(page_idx_, monitors_.get(), ctx->cpu(), ctx->filter_slots(),
                &scratch_);
  guard_.Release();
  page_open_ = false;
}

Status TableScanOp::CloseImpl(ExecContext* ctx) {
  // A drained scan already left its last page; an abandoned one has not.
  if (page_open_) LeavePage(ctx);
  return Status::OK();
}

std::string TableScanOp::Describe() const {
  const Schema& schema = table_->schema();
  const std::string pushed = step_.pushed().ToString(schema);
  if (range_.has_value()) {
    return StrFormat(
        "ClusteredRangeScan(%s, %s in [%lld,%lld], %s)",
        table_->name().c_str(),
        schema.column(static_cast<size_t>(table_->cluster_key_col()))
            .name.c_str(),
        static_cast<long long>(range_->lo),
        static_cast<long long>(range_->hi), pushed.c_str());
  }
  return StrFormat("%s(%s, %s)",
                   table_->organization() == TableOrganization::kClustered
                       ? "ClusteredIndexScan"
                       : "TableScan",
                   table_->name().c_str(), pushed.c_str());
}

void TableScanOp::CollectOwnMonitorRecords(
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
