// Predicates: ordered conjunctions of atomic comparisons, evaluated with
// genuine short-circuiting inside the storage engine.
//
// Short-circuiting is load-bearing for the paper: a scan evaluates the
// pushed-down conjunction left-to-right and stops at the first failing atom,
// so a monitor asking for the page count of a *non-prefix* sub-expression
// cannot reuse the scan's own evaluation (Example 3) and must pay for extra
// evaluations — which is what DPSample bounds. Every atom evaluation is
// charged to CpuStats::predicate_atom_evals so the Fig 7/9 overhead
// experiments measure real work.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/io_stats.h"
#include "table/row_codec.h"
#include "table/schema.h"

namespace dpcf {

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpSymbol(CmpOp op);

/// One comparison `column <op> constant`. For CHAR columns the operand is
/// space-padded to the column width at construction so evaluation is a raw
/// memcmp against the page bytes.
class PredicateAtom {
 public:
  static PredicateAtom Int64(int col, CmpOp op, int64_t operand);
  /// `width` must be the column's declared CHAR width.
  static PredicateAtom String(int col, CmpOp op, std::string operand,
                              uint32_t width);

  int col() const { return col_; }
  CmpOp op() const { return op_; }
  bool is_string() const { return is_string_; }
  int64_t int_operand() const { return int_operand_; }
  const std::string& string_operand() const { return str_operand_; }

  /// Evaluates against raw row bytes. Does NOT charge stats; callers charge
  /// via Predicate / monitor code paths.
  bool Eval(const RowView& row) const;

  /// Evaluates the comparison against an already-extracted INT64 column
  /// value (covering-index scans read values from index entries, not rows).
  bool EvalInt(int64_t value) const;

  std::string ToString(const Schema& schema) const;

  /// True if `other` tests the same column with the same op and operand.
  bool SameAs(const PredicateAtom& other) const;

 private:
  PredicateAtom() = default;

  int col_ = -1;
  CmpOp op_ = CmpOp::kEq;
  bool is_string_ = false;
  int64_t int_operand_ = 0;
  std::string str_operand_;  // padded to column width
};

/// Ordered conjunction of atoms. The order is the evaluation order, exactly
/// like a predicate list compiled into a scan operator.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<PredicateAtom> atoms)
      : atoms_(std::move(atoms)) {}

  const std::vector<PredicateAtom>& atoms() const { return atoms_; }
  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }
  void Add(PredicateAtom atom) { atoms_.push_back(std::move(atom)); }

  /// Short-circuit evaluation. Returns the number of leading atoms that
  /// evaluated TRUE (== size() means the row passes); charges one atom
  /// evaluation per atom actually evaluated.
  uint32_t EvalLeading(const RowView& row, CpuStats* cpu) const;

  /// Row passes the whole conjunction (short-circuit, charged).
  bool Eval(const RowView& row, CpuStats* cpu) const {
    return EvalLeading(row, cpu) == atoms_.size();
  }

  /// Evaluation with short-circuiting turned OFF: every atom is evaluated
  /// and charged. This is what monitors pay on sampled pages when the
  /// requested expression is not a prefix (paper Section III-B).
  bool EvalNoShortCircuit(const RowView& row, CpuStats* cpu) const;

  /// True if this conjunction is a prefix of `pushed` (same atoms, same
  /// order) — the case where page counting is free (paper: "no need to
  /// turn off predicate short-circuiting for any prefix").
  bool IsPrefixOf(const Predicate& pushed) const;

  /// "C2<500000 AND C3=7"; empty predicate renders as "TRUE".
  std::string ToString(const Schema& schema) const;

  /// Order-insensitive key for the feedback store: atoms rendered and
  /// sorted, joined with " AND ".
  std::string CanonicalKey(const Schema& schema) const;

 private:
  std::vector<PredicateAtom> atoms_;
};

}  // namespace dpcf
