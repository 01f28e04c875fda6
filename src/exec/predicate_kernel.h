// Vectorized predicate evaluation over the rows of one heap page
// (DESIGN.md section 12).
//
// A PredicateKernel compiles a Predicate into per-atom batch comparators
// that run over a RowBlock with a *selection vector*: atom k is evaluated
// only for the rows that survived atoms 0..k-1, and the conjunction
// short-circuits as soon as the selection vector empties. That makes the
// work — and therefore CpuStats::predicate_atom_evals — identical to the
// row-at-a-time short-circuit loop, row for row and atom for atom, which
// is what keeps the fig7/fig9 overhead accounting and SimulatedMillis
// comparable across the two paths. The per-row `leading` output reproduces
// Predicate::EvalLeading exactly, so batch-fed monitors see the same
// prefix-truth information as the serial scan.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/predicate.h"
#include "exec/simd.h"
#include "storage/io_stats.h"
#include "table/row_codec.h"

namespace dpcf {

/// A Predicate compiled for batch evaluation. Self-contained (owns operand
/// copies and column offsets), cheap to copy, and stateless across calls —
/// one kernel can serve every page of a scan and be shared by value across
/// worker bundles.
class PredicateKernel {
 public:
  /// An empty kernel evaluates TRUE for every row (zero atoms).
  PredicateKernel() = default;
  /// INT64 atoms run on `simd`, by default the table ActiveSimdOps()
  /// returns at construction, so a process-wide ISA override
  /// (SetActiveSimd / DPCF_SIMD) applies to kernels built afterwards.
  PredicateKernel(const Predicate& pred, const Schema* schema,
                  const SimdOps& simd = ActiveSimdOps());

  /// The SIMD table this kernel's INT64 comparators run on.
  SimdIsa simd_isa() const { return simd_->isa; }

  size_t num_atoms() const { return atoms_.size(); }

  /// Short-circuit selection-vector evaluation of all rows in `block`.
  ///
  /// `sel` and `leading` must hold block->size() elements. On return,
  /// sel[0..ret) are the surviving row indices in ascending order and
  /// leading[r] is the number of leading atoms that evaluated TRUE for row
  /// r under short-circuiting (== Predicate::EvalLeading for that row).
  /// `leading` may be nullptr when no monitor consumes it (an unmonitored
  /// scan): the kernel then skips the per-row leading stores, which is
  /// measurably cheaper on bandwidth-bound scans. Charges
  /// cpu->predicate_atom_evals exactly like the serial loop: one eval per
  /// atom per row still in the selection vector when that atom runs.
  uint32_t EvalBatch(RowBlock* block, CpuStats* cpu, uint32_t* sel,
                     uint32_t* leading) const;

  /// Evaluation with short-circuiting turned OFF: every atom is evaluated
  /// on every row and charged (atoms × rows), mirroring
  /// Predicate::EvalNoShortCircuit — the cost monitors pay on sampled
  /// pages. `pass` must hold block->size() elements; pass[r] ends up 1 iff
  /// row r satisfies the whole conjunction.
  void EvalBatchDense(RowBlock* block, CpuStats* cpu, uint8_t* pass) const;

 private:
  struct Atom {
    CmpOp op = CmpOp::kEq;
    bool is_string = false;
    size_t col = 0;
    size_t offset = 0;        // byte offset of the column within a row
    uint32_t width = 0;       // CHAR width (string atoms only)
    int64_t int_operand = 0;
    std::string str_operand;  // padded to `width`, like PredicateAtom
  };
  std::vector<Atom> atoms_;
  // Never null; the default is whatever dispatch resolved for the process.
  const SimdOps* simd_ = &ActiveSimdOps();
};

}  // namespace dpcf
