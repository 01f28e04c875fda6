#include "exec/predicate.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/string_util.h"

namespace dpcf {

const char* CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {
template <typename T>
bool Apply(CmpOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}
}  // namespace

PredicateAtom PredicateAtom::Int64(int col, CmpOp op, int64_t operand) {
  PredicateAtom a;
  a.col_ = col;
  a.op_ = op;
  a.is_string_ = false;
  a.int_operand_ = operand;
  return a;
}

PredicateAtom PredicateAtom::String(int col, CmpOp op, std::string operand,
                                    uint32_t width) {
  assert(operand.size() <= width);
  PredicateAtom a;
  a.col_ = col;
  a.op_ = op;
  a.is_string_ = true;
  operand.resize(width, ' ');
  a.str_operand_ = std::move(operand);
  return a;
}

bool PredicateAtom::EvalInt(int64_t value) const {
  assert(!is_string_);
  return Apply(op_, value, int_operand_);
}

bool PredicateAtom::Eval(const RowView& row) const {
  if (!is_string_) {
    return Apply(op_, row.GetInt64(static_cast<size_t>(col_)), int_operand_);
  }
  std::string_view v = row.GetString(static_cast<size_t>(col_));
  return Apply(op_, v, std::string_view(str_operand_));
}

std::string PredicateAtom::ToString(const Schema& schema) const {
  const std::string& name = schema.column(static_cast<size_t>(col_)).name;
  if (!is_string_) {
    return StrFormat("%s%s%lld", name.c_str(), CmpOpSymbol(op_),
                     static_cast<long long>(int_operand_));
  }
  std::string trimmed = str_operand_;
  size_t end = trimmed.find_last_not_of(' ');
  trimmed.erase(end == std::string::npos ? 0 : end + 1);
  return StrFormat("%s%s'%s'", name.c_str(), CmpOpSymbol(op_),
                   trimmed.c_str());
}

bool PredicateAtom::SameAs(const PredicateAtom& other) const {
  return col_ == other.col_ && op_ == other.op_ &&
         is_string_ == other.is_string_ &&
         (is_string_ ? str_operand_ == other.str_operand_
                     : int_operand_ == other.int_operand_);
}

uint32_t Predicate::EvalLeading(const RowView& row, CpuStats* cpu) const {
  uint32_t passed = 0;
  for (const PredicateAtom& a : atoms_) {
    ++cpu->predicate_atom_evals;
    if (!a.Eval(row)) break;
    ++passed;
  }
  return passed;
}

bool Predicate::EvalNoShortCircuit(const RowView& row, CpuStats* cpu) const {
  bool pass = true;
  for (const PredicateAtom& a : atoms_) {
    ++cpu->predicate_atom_evals;
    pass &= a.Eval(row);
  }
  return pass;
}

bool Predicate::IsPrefixOf(const Predicate& pushed) const {
  if (atoms_.size() > pushed.atoms_.size()) return false;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (!atoms_[i].SameAs(pushed.atoms_[i])) return false;
  }
  return true;
}

std::string Predicate::ToString(const Schema& schema) const {
  if (atoms_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(atoms_.size());
  for (const PredicateAtom& a : atoms_) parts.push_back(a.ToString(schema));
  return Join(parts, " AND ");
}

std::string Predicate::CanonicalKey(const Schema& schema) const {
  if (atoms_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(atoms_.size());
  for (const PredicateAtom& a : atoms_) parts.push_back(a.ToString(schema));
  std::sort(parts.begin(), parts.end());
  return Join(parts, " AND ");
}

}  // namespace dpcf
