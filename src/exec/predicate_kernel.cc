#include "exec/predicate_kernel.h"

#include <cassert>
#include <cstring>
#include <type_traits>
#include <utility>

#include "exec/simd.h"

namespace dpcf {

namespace {

// INT64 atoms run on the dispatched SIMD table (exec/simd.h) — scalar or
// AVX2, bit-for-bit identical. CHAR atoms stay on the scalar
// memcmp loops below: fixed-width byte compares don't gather and the
// workloads' string atoms are rare, so there is nothing to win.

template <CmpOp Op>
inline bool ApplyCmp(int lhs, int rhs) {
  if constexpr (Op == CmpOp::kEq) {
    return lhs == rhs;
  } else if constexpr (Op == CmpOp::kNe) {
    return lhs != rhs;
  } else if constexpr (Op == CmpOp::kLt) {
    return lhs < rhs;
  } else if constexpr (Op == CmpOp::kLe) {
    return lhs <= rhs;
  } else if constexpr (Op == CmpOp::kGt) {
    return lhs > rhs;
  } else {
    return lhs >= rhs;
  }
}

/// Runtime CmpOp -> compile-time template parameter, so every comparator
/// below is a branch-free tight loop with the op baked in.
template <typename F>
inline auto DispatchOp(CmpOp op, F&& f) {
  switch (op) {
    case CmpOp::kEq:
      return f(std::integral_constant<CmpOp, CmpOp::kEq>{});
    case CmpOp::kNe:
      return f(std::integral_constant<CmpOp, CmpOp::kNe>{});
    case CmpOp::kLt:
      return f(std::integral_constant<CmpOp, CmpOp::kLt>{});
    case CmpOp::kLe:
      return f(std::integral_constant<CmpOp, CmpOp::kLe>{});
    case CmpOp::kGt:
      return f(std::integral_constant<CmpOp, CmpOp::kGt>{});
    case CmpOp::kGe:
      return f(std::integral_constant<CmpOp, CmpOp::kGe>{});
  }
  return f(std::integral_constant<CmpOp, CmpOp::kEq>{});  // unreachable
}

// CHAR atoms: fixed-width memcmp against the page bytes in place (both
// sides are space-padded to `width`, so lexicographic order on the padded
// bytes equals the string_view comparison the row path does).
template <CmpOp Op, bool WithLeading>
uint32_t FilterStringFirst(const RowBlock& block, size_t offset,
                           uint32_t width, const char* operand, uint32_t n,
                           uint32_t* sel, uint32_t* leading) {
  uint32_t out = 0;
  for (uint32_t r = 0; r < n; ++r) {
    const int c = std::memcmp(block.row(r) + offset, operand, width);
    const bool hit = ApplyCmp<Op>(c, 0);
    sel[out] = r;
    if constexpr (WithLeading) leading[r] = hit;
    out += hit;
  }
  return out;
}

template <CmpOp Op, bool WithLeading>
uint32_t FilterStringNext(const RowBlock& block, size_t offset,
                          uint32_t width, const char* operand, uint32_t* sel,
                          uint32_t m, uint32_t* leading) {
  uint32_t out = 0;
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t r = sel[i];
    sel[out] = r;
    const int c = std::memcmp(block.row(r) + offset, operand, width);
    const bool hit = ApplyCmp<Op>(c, 0);
    if constexpr (WithLeading) leading[r] += hit;
    out += hit;
  }
  return out;
}

template <CmpOp Op>
void DenseString(const RowBlock& block, size_t offset, uint32_t width,
                 const char* operand, uint32_t n, uint8_t* pass,
                 bool first) {
  for (uint32_t r = 0; r < n; ++r) {
    const int c = std::memcmp(block.row(r) + offset, operand, width);
    const uint8_t hit = static_cast<uint8_t>(ApplyCmp<Op>(c, 0));
    pass[r] = first ? hit : (pass[r] & hit);
  }
}

}  // namespace

PredicateKernel::PredicateKernel(const Predicate& pred, const Schema* schema,
                                 const SimdOps& simd)
    : simd_(&simd) {
  atoms_.reserve(pred.size());
  for (const PredicateAtom& a : pred.atoms()) {
    Atom k;
    k.op = a.op();
    k.is_string = a.is_string();
    k.col = static_cast<size_t>(a.col());
    k.offset = schema->offset(k.col);
    if (k.is_string) {
      k.width = schema->column(k.col).size;
      k.str_operand = a.string_operand();  // already padded to width
      assert(k.str_operand.size() == k.width);
    } else {
      k.int_operand = a.int_operand();
    }
    atoms_.push_back(std::move(k));
  }
}

uint32_t PredicateKernel::EvalBatch(RowBlock* block, CpuStats* cpu,
                                    uint32_t* sel, uint32_t* leading) const {
  const uint32_t n = block->size();
  if (atoms_.empty()) {
    // TRUE kernel: every row survives with zero leading atoms.
    for (uint32_t r = 0; r < n; ++r) {
      sel[r] = r;
      if (leading != nullptr) leading[r] = 0;
    }
    return n;
  }
  const char* rows = block->rows_base();
  const uint32_t stride = block->row_stride();
  const size_t wl = leading != nullptr ? 1 : 0;
  uint32_t m = n;
  bool first = true;
  for (const Atom& a : atoms_) {
    if (m == 0) break;  // selection vector emptied: short-circuit
    cpu->predicate_atom_evals += m;
    if (!a.is_string) {
      const size_t op = static_cast<size_t>(a.op);
      m = first ? simd_->int64_filter_first[op][wl](rows, stride, a.offset,
                                                    a.int_operand, n, sel,
                                                    leading)
                : simd_->int64_filter_next[op][wl](rows, stride, a.offset,
                                                   a.int_operand, sel, m,
                                                   leading);
    } else {
      m = DispatchOp(a.op, [&](auto op_tag) -> uint32_t {
        constexpr CmpOp Op = decltype(op_tag)::value;
        if (leading != nullptr) {
          return first ? FilterStringFirst<Op, true>(*block, a.offset,
                                                     a.width,
                                                     a.str_operand.data(), n,
                                                     sel, leading)
                       : FilterStringNext<Op, true>(*block, a.offset, a.width,
                                                    a.str_operand.data(), sel,
                                                    m, leading);
        }
        return first ? FilterStringFirst<Op, false>(*block, a.offset, a.width,
                                                    a.str_operand.data(), n,
                                                    sel, nullptr)
                     : FilterStringNext<Op, false>(*block, a.offset, a.width,
                                                   a.str_operand.data(), sel,
                                                   m, nullptr);
      });
    }
    first = false;
  }
  return m;
}

void PredicateKernel::EvalBatchDense(RowBlock* block, CpuStats* cpu,
                                     uint8_t* pass) const {
  const uint32_t n = block->size();
  if (atoms_.empty()) {
    std::memset(pass, 1, n);
    return;
  }
  if (n == 0) return;  // keep null rows_base out of the kernels
  const char* rows = block->rows_base();
  const uint32_t stride = block->row_stride();
  bool first = true;
  for (const Atom& a : atoms_) {
    cpu->predicate_atom_evals += n;
    if (!a.is_string) {
      simd_->int64_dense[static_cast<size_t>(a.op)](rows, stride, a.offset,
                                                    a.int_operand, n, pass,
                                                    first);
    } else {
      DispatchOp(a.op, [&](auto op_tag) {
        constexpr CmpOp Op = decltype(op_tag)::value;
        DenseString<Op>(*block, a.offset, a.width, a.str_operand.data(), n,
                        pass, first);
      });
    }
    first = false;
  }
}

}  // namespace dpcf
