#include "exec/join_ops.h"

#include <cassert>
#include <iterator>

#include "common/string_util.h"

namespace dpcf {

namespace {
/// Overwrites *out with a followed by b, in place: *out keeps its capacity,
/// so a caller that reuses one output tuple allocates nothing per row.
void Concat(std::span<const Value> a, std::span<const Value> b, Tuple* out) {
  out->assign(a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}
}  // namespace

HashJoinOp::HashJoinOp(OperatorPtr build, int build_key_idx,
                       OperatorPtr probe, int probe_key_idx,
                       std::optional<BitvectorSpec> filter_spec)
    : build_(std::move(build)),
      build_key_idx_(build_key_idx),
      probe_(std::move(probe)),
      probe_key_idx_(probe_key_idx),
      filter_spec_(filter_spec) {}

Status HashJoinOp::OpenImpl(ExecContext* ctx) {
  build_values_.clear();
  build_arity_ = 0;
  matches_ = {};
  match_pos_ = 0;

  // Build phase: drain the build child. The bitvector filter is computed
  // here (one hash per build row) and registered with the context BEFORE
  // the probe side opens — the probe scan's monitor sees a complete filter.
  std::unique_ptr<BitvectorFilter> filter;
  if (filter_spec_.has_value()) {
    filter = std::make_unique<BitvectorFilter>(filter_spec_->numbits);
  }
  DPCF_RETURN_IF_ERROR(build_->Open(ctx));
  std::vector<int64_t> keys;
  Tuple t;
  while (true) {
    auto more = build_->Next(ctx, &t);
    if (!more.ok()) return more.status();
    if (!*more) break;
    if (keys.empty()) {
      build_arity_ = t.size();
    } else if (t.size() != build_arity_) {
      return Status::Internal("hash join build rows differ in arity");
    }
    int64_t key = t[static_cast<size_t>(build_key_idx_)].AsInt64();
    ++ctx->cpu()->hash_table_ops;
    if (filter != nullptr) {
      ++ctx->cpu()->monitor_hash_ops;
      filter->AddKeyCounted(key);
    }
    keys.push_back(key);
    build_values_.insert(build_values_.end(),
                         std::make_move_iterator(t.begin()),
                         std::make_move_iterator(t.end()));
  }
  DPCF_RETURN_IF_ERROR(build_->Close(ctx));
  DPCF_RETURN_IF_ERROR(table_.Build(keys));
  if (filter != nullptr) {
    DPCF_RETURN_IF_ERROR(ctx->SetFilter(filter_spec_->slot,
                                        std::move(filter)));
  }
  // The semi-join filter runs in the probe scan, before tuples are built.
  probe_->SetJoinKeyFilter(&table_, probe_key_idx_);
  return probe_->Open(ctx);
}

Result<bool> HashJoinOp::NextImpl(ExecContext* ctx, Tuple* out) {
  while (true) {
    if (match_pos_ < matches_.size()) {
      const size_t row = matches_[match_pos_++];
      Concat(probe_tuple_,
             std::span<const Value>(build_values_).subspan(
                 row * build_arity_, build_arity_),
             out);
      return true;
    }
    auto more = probe_->Next(ctx, &probe_tuple_);
    if (!more.ok()) return more.status();
    if (!*more) return false;
    ++ctx->cpu()->hash_table_ops;
    matches_ = table_.Find(
        probe_tuple_[static_cast<size_t>(probe_key_idx_)].AsInt64());
    match_pos_ = 0;
  }
}

Status HashJoinOp::CloseImpl(ExecContext* ctx) {
  Status st = probe_->Close(ctx);
  probe_->SetJoinKeyFilter(nullptr, 0);
  matches_ = {};
  build_values_.clear();
  table_ = {};
  return st;
}

std::string HashJoinOp::Describe() const {
  return StrFormat("HashJoin(%s)", filter_spec_.has_value()
                                       ? "with bitvector filter"
                                       : "no filter");
}


std::vector<const Operator*> HashJoinOp::children() const {
  return {build_.get(), probe_.get()};
}

MergeJoinOp::MergeJoinOp(OperatorPtr outer, int outer_key_idx,
                         OperatorPtr inner, int inner_key_idx,
                         MergeBitvectorMode bv_mode,
                         std::optional<BitvectorSpec> filter_spec)
    : outer_(std::move(outer)),
      outer_key_idx_(outer_key_idx),
      inner_(std::move(inner)),
      inner_key_idx_(inner_key_idx),
      bv_mode_(bv_mode),
      filter_spec_(filter_spec) {
  assert(bv_mode_ == MergeBitvectorMode::kNone || filter_spec_.has_value());
}

Status MergeJoinOp::OpenImpl(ExecContext* ctx) {
  outer_buf_.clear();
  outer_pos_ = 0;
  outer_valid_ = inner_valid_ = false;
  group_active_ = false;
  outer_group_.clear();

  DPCF_RETURN_IF_ERROR(outer_->Open(ctx));
  if (bv_mode_ == MergeBitvectorMode::kPrebuilt) {
    // The outer child is blocking (e.g. a Sort): its first GetNext already
    // implies full consumption of its input. Drain it here, building the
    // complete filter before the inner side produces anything.
    auto filter = std::make_unique<BitvectorFilter>(filter_spec_->numbits);
    Tuple t;
    while (true) {
      auto more = outer_->Next(ctx, &t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      ++ctx->cpu()->monitor_hash_ops;
      filter->AddKeyCounted(
          t[static_cast<size_t>(outer_key_idx_)].AsInt64());
      outer_buf_.push_back(std::move(t));
    }
    DPCF_RETURN_IF_ERROR(outer_->Close(ctx));
    DPCF_RETURN_IF_ERROR(ctx->SetFilter(filter_spec_->slot,
                                        std::move(filter)));
  } else if (bv_mode_ == MergeBitvectorMode::kPartial) {
    // Register an empty filter immediately; AdvanceOuter grows it.
    DPCF_RETURN_IF_ERROR(ctx->SetFilter(
        filter_spec_->slot,
        std::make_unique<BitvectorFilter>(filter_spec_->numbits)));
  }
  DPCF_RETURN_IF_ERROR(inner_->Open(ctx));

  DPCF_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter(ctx));
  DPCF_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner(ctx));
  return Status::OK();
}

Result<bool> MergeJoinOp::AdvanceOuter(ExecContext* ctx) {
  if (bv_mode_ == MergeBitvectorMode::kPrebuilt) {
    if (outer_pos_ >= outer_buf_.size()) return false;
    outer_tuple_ = outer_buf_[outer_pos_++];
    return true;
  }
  auto more = outer_->Next(ctx, &outer_tuple_);
  if (!more.ok()) return more.status();
  if (!*more) return false;
  if (bv_mode_ == MergeBitvectorMode::kPartial) {
    BitvectorFilter* filter = ctx->MutableFilter(filter_spec_->slot);
    ++ctx->cpu()->monitor_hash_ops;
    filter->AddKeyCounted(
        outer_tuple_[static_cast<size_t>(outer_key_idx_)].AsInt64());
  }
  return true;
}

Result<bool> MergeJoinOp::AdvanceInner(ExecContext* ctx) {
  auto more = inner_->Next(ctx, &inner_tuple_);
  if (!more.ok()) return more.status();
  return *more;
}

Result<bool> MergeJoinOp::NextImpl(ExecContext* ctx, Tuple* out) {
  while (true) {
    // Emit pending (outer-run × inner-row) pairs first.
    if (group_active_) {
      bool inner_matches =
          inner_valid_ &&
          inner_tuple_[static_cast<size_t>(inner_key_idx_)].AsInt64() ==
              group_key_;
      if (inner_matches && group_pos_ < outer_group_.size()) {
        Concat(outer_group_[group_pos_++], inner_tuple_, out);
        return true;
      }
      if (inner_matches) {
        // This inner row paired with the whole outer run; next inner row.
        DPCF_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner(ctx));
        group_pos_ = 0;
        continue;
      }
      group_active_ = false;
      outer_group_.clear();
    }
    if (!outer_valid_ || !inner_valid_) return false;
    int64_t ok = outer_tuple_[static_cast<size_t>(outer_key_idx_)].AsInt64();
    int64_t ik = inner_tuple_[static_cast<size_t>(inner_key_idx_)].AsInt64();
    if (ok < ik) {
      DPCF_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter(ctx));
    } else if (ok > ik) {
      DPCF_ASSIGN_OR_RETURN(inner_valid_, AdvanceInner(ctx));
    } else {
      // Keys match: buffer the full OUTER run for this key (and move the
      // outer past it) before touching further inner rows — see the
      // header comment on partial-filter correctness.
      group_key_ = ok;
      outer_group_.clear();
      outer_group_.push_back(outer_tuple_);
      while (true) {
        DPCF_ASSIGN_OR_RETURN(outer_valid_, AdvanceOuter(ctx));
        if (!outer_valid_ ||
            outer_tuple_[static_cast<size_t>(outer_key_idx_)].AsInt64() !=
                group_key_) {
          break;
        }
        outer_group_.push_back(outer_tuple_);
      }
      group_active_ = true;
      group_pos_ = 0;
    }
  }
}

Status MergeJoinOp::CloseImpl(ExecContext* ctx) {
  Status s1 = Status::OK();
  if (bv_mode_ != MergeBitvectorMode::kPrebuilt) {
    s1 = outer_->Close(ctx);
  }
  Status s2 = inner_->Close(ctx);
  DPCF_RETURN_IF_ERROR(s1);
  return s2;
}

std::string MergeJoinOp::Describe() const {
  const char* mode = bv_mode_ == MergeBitvectorMode::kNone
                         ? "no filter"
                         : (bv_mode_ == MergeBitvectorMode::kPrebuilt
                                ? "prebuilt bitvector"
                                : "partial bitvector");
  return StrFormat("MergeJoin(%s)", mode);
}


std::vector<const Operator*> MergeJoinOp::children() const {
  return {outer_.get(), inner_.get()};
}

IndexNestedLoopsJoinOp::IndexNestedLoopsJoinOp(
    OperatorPtr outer, int outer_key_idx, Table* inner_table,
    Index* inner_index, Predicate inner_residual,
    std::vector<int> inner_projection,
    std::vector<FetchMonitorRequest> monitor_requests)
    : outer_(std::move(outer)),
      outer_key_idx_(outer_key_idx),
      inner_table_(inner_table),
      inner_index_(inner_index),
      inner_residual_(std::move(inner_residual)),
      inner_projection_(std::move(inner_projection)) {
  monitors_.reserve(monitor_requests.size());
  for (FetchMonitorRequest& req : monitor_requests) {
    monitors_.emplace_back(std::move(req));
  }
}

Status IndexNestedLoopsJoinOp::OpenImpl(ExecContext* ctx) {
  outer_valid_ = false;
  inner_it_ = BtreeIterator();
  return outer_->Open(ctx);
}

Result<bool> IndexNestedLoopsJoinOp::NextImpl(ExecContext* ctx, Tuple* out) {
  CpuStats* cpu = ctx->cpu();
  while (true) {
    // Drain the current inner index run.
    while (outer_valid_ && inner_it_.Valid() &&
           inner_it_.key().k1 == current_key_) {
      Rid rid = Rid::Unpack(inner_it_.aux());
      DPCF_RETURN_IF_ERROR(inner_it_.Next());

      const char* row_bytes = nullptr;
      auto guard = inner_table_->file()->FetchRow(rid, &row_bytes);
      if (!guard.ok()) return guard.status();
      RowView row(row_bytes, &inner_table_->schema());
      ++cpu->rows_processed;

      // Every fetched inner row satisfies the join predicate, exactly the
      // rows an INL costing needs: feed the PID-stream monitors.
      const uint64_t pid =
          PageId{inner_table_->segment(), rid.page_no}.Pack();
      for (PidStreamMonitor& m : monitors_) {
        if (!m.request().passing_residual_only) m.Add(pid, cpu);
      }
      if (!inner_residual_.Eval(row, cpu)) continue;
      for (PidStreamMonitor& m : monitors_) {
        if (m.request().passing_residual_only) m.Add(pid, cpu);
      }
      out->assign(outer_tuple_.begin(), outer_tuple_.end());
      for (int col : inner_projection_) {
        out->push_back(row.GetValue(static_cast<size_t>(col)));
      }
      return true;
    }
    // Pull the next outer row and reposition the inner index.
    auto more = outer_->Next(ctx, &outer_tuple_);
    if (!more.ok()) return more.status();
    if (!*more) {
      outer_valid_ = false;
      return false;
    }
    outer_valid_ = true;
    current_key_ =
        outer_tuple_[static_cast<size_t>(outer_key_idx_)].AsInt64();
    auto it = inner_index_->tree()->SeekFirst(BtreeKey::Min(current_key_));
    if (!it.ok()) return it.status();
    inner_it_ = std::move(it).value();
  }
}

Status IndexNestedLoopsJoinOp::CloseImpl(ExecContext* ctx) {
  inner_it_ = BtreeIterator();
  return outer_->Close(ctx);
}

std::string IndexNestedLoopsJoinOp::Describe() const {
  return StrFormat("IndexNestedLoopsJoin(inner=%s via %s, residual=%s)",
                   inner_table_->name().c_str(),
                   inner_index_->name().c_str(),
                   inner_residual_.ToString(inner_table_->schema()).c_str());
}

void IndexNestedLoopsJoinOp::CollectOwnMonitorRecords(
    std::vector<MonitorRecord>* out) const {
  for (const PidStreamMonitor& m : monitors_) {
    out->push_back(m.MakeRecord(inner_table_->name()));
  }
}

std::vector<const Operator*> IndexNestedLoopsJoinOp::children() const {
  return {outer_.get()};
}

}  // namespace dpcf
