// Relational-engine operators: Sort and COUNT aggregation.
// These run above the storage engine and never see PIDs.

#pragma once

#include "exec/operator.h"

namespace dpcf {

/// Blocking sort on one INT64 tuple position, ascending. Used to feed
/// Merge Join (and is the case where the prebuilt bitvector applies: the
/// first Next() implies the child was fully consumed).
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, int key_idx);

  std::string Describe() const override;
  std::vector<const Operator*> children() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  OperatorPtr child_;
  int key_idx_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// COUNT(*) over the child: emits a single 1-column tuple.
class AggregateCountOp : public Operator {
 public:
  explicit AggregateCountOp(OperatorPtr child);

  std::string Describe() const override;
  std::vector<const Operator*> children() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  OperatorPtr child_;
  int64_t count_ = 0;
  bool emitted_ = false;
};

}  // namespace dpcf
