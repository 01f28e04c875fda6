#include "exec/rel_ops.h"

#include <algorithm>

#include "common/string_util.h"

namespace dpcf {

SortOp::SortOp(OperatorPtr child, int key_idx)
    : child_(std::move(child)), key_idx_(key_idx) {}

Status SortOp::OpenImpl(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  DPCF_RETURN_IF_ERROR(child_->Open(ctx));
  Tuple t;
  while (true) {
    auto more = child_->Next(ctx, &t);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.push_back(std::move(t));
  }
  DPCF_RETURN_IF_ERROR(child_->Close(ctx));
  // Charge ~n log n comparisons as generic CPU row work.
  ctx->cpu()->rows_processed += static_cast<int64_t>(rows_.size());
  size_t idx = static_cast<size_t>(key_idx_);
  std::stable_sort(rows_.begin(), rows_.end(),
                   [idx](const Tuple& a, const Tuple& b) {
                     return a[idx].AsInt64() < b[idx].AsInt64();
                   });
  return Status::OK();
}

Result<bool> SortOp::NextImpl(ExecContext* ctx, Tuple* out) {
  (void)ctx;
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

Status SortOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  rows_.clear();
  return Status::OK();
}

std::string SortOp::Describe() const {
  return StrFormat("Sort(key=#%d)", key_idx_);
}


std::vector<const Operator*> SortOp::children() const {
  return {child_.get()};
}

AggregateCountOp::AggregateCountOp(OperatorPtr child)
    : child_(std::move(child)) {}

Status AggregateCountOp::OpenImpl(ExecContext* ctx) {
  count_ = 0;
  emitted_ = false;
  return child_->Open(ctx);
}

Result<bool> AggregateCountOp::NextImpl(ExecContext* ctx, Tuple* out) {
  if (emitted_) return false;
  Tuple t;
  while (true) {
    auto more = child_->Next(ctx, &t);
    if (!more.ok()) return more.status();
    if (!*more) break;
    ++count_;
  }
  emitted_ = true;
  out->clear();
  out->push_back(Value::Int64(count_));
  return true;
}

Status AggregateCountOp::CloseImpl(ExecContext* ctx) {
  return child_->Close(ctx);
}

std::string AggregateCountOp::Describe() const { return "Aggregate(COUNT)"; }


std::vector<const Operator*> AggregateCountOp::children() const {
  return {child_.get()};
}

}  // namespace dpcf
