// Portable SIMD layer for the predicate hot path (DESIGN.md section 16).
//
// The engine evaluates INT64 comparison atoms over strided, unaligned rows
// read in place from buffer-pool pages. This header defines the kernel ABI
// those comparators are written against — a per-process table of function
// pointers (SimdOps) with one entry per (CmpOp, leading-tracked?) pair —
// plus the runtime dispatch that picks an implementation:
//
//   - kScalar: portable loops, bit-for-bit the charging oracle.
//   - kAvx2:   4-wide manual strided loads + movemask selection, compiled
//              into its own translation unit with -mavx2 (the only TU
//              allowed to use raw intrinsics; the dpcf-simd-intrinsics
//              lint enforces it).
//
// Dispatch runs once per process: the env override DPCF_SIMD=avx2|scalar
// wins if that ISA is available (falling back to scalar with a stderr
// note if not), otherwise the best ISA the CPU supports is chosen via
// runtime feature detection. Tests pin an ISA with SetActiveSimd().
//
// Every implementation must produce *identical* outputs to kScalar —
// selection vectors, leading[] counts, pass[] bitmaps and return values —
// because CpuStats charging and monitor feedback are derived from them and
// must not depend on the host CPU (see tests/simd_dispatch_test.cc).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dpcf {

enum class SimdIsa : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// Stable lowercase name ("scalar", "avx2") — the DPCF_SIMD env
/// spelling and the `isa` label on the dpcf_simd_dispatch_info gauge.
const char* SimdIsaName(SimdIsa isa);

/// Kernel table. All row pointers address page bytes in place: `rows` is
/// the first row, subsequent rows follow at `stride` bytes, and the INT64
/// column lives at `offset` within each row (unaligned; implementations
/// must use unaligned loads). Indexed by static_cast<size_t>(CmpOp) and,
/// for the filter entries, by whether leading[] is tracked.
struct SimdOps {
  /// First atom of a conjunction: scans rows [0, n), writes surviving row
  /// indices (ascending) to sel, returns the survivor count. When
  /// WithLeading, also writes leading[r] = hit (0/1) for every row.
  using FilterFirstFn = uint32_t (*)(const char* rows, uint32_t stride,
                                     size_t offset, int64_t operand,
                                     uint32_t n, uint32_t* sel,
                                     uint32_t* leading);

  /// Later atom: compacts the existing selection vector sel[0..m) in
  /// place, returns the new count. When WithLeading, adds the hit (0/1)
  /// into leading[r] for every row still in the vector.
  using FilterNextFn = uint32_t (*)(const char* rows, uint32_t stride,
                                    size_t offset, int64_t operand,
                                    uint32_t* sel, uint32_t m,
                                    uint32_t* leading);

  /// Dense (no-short-circuit) atom over rows [0, n): pass[r] = hit when
  /// `first`, pass[r] &= hit otherwise.
  using DenseFn = void (*)(const char* rows, uint32_t stride, size_t offset,
                           int64_t operand, uint32_t n, uint8_t* pass,
                           bool first);

  /// Sorted-key run cutoff: returns the index of the first row whose INT64
  /// value at `offset` exceeds `bound` (n if none). Rows must be sorted
  /// ascending on that column — used by the clustered scan to truncate a
  /// leaf-ordered batch at the range's upper bound.
  using LeadingLeFn = uint32_t (*)(const char* rows, uint32_t stride,
                                   size_t offset, int64_t bound, uint32_t n);

  FilterFirstFn int64_filter_first[6][2];  // [CmpOp][with_leading]
  FilterNextFn int64_filter_next[6][2];    // [CmpOp][with_leading]
  DenseFn int64_dense[6];                  // [CmpOp]
  LeadingLeFn int64_leading_le;
  SimdIsa isa = SimdIsa::kScalar;
};

/// The process-wide active table. Resolved on first use (env override,
/// then CPU detection); a PredicateKernel snapshots the pointer at
/// construction, so SetActiveSimd() affects kernels built afterwards.
const SimdOps& ActiveSimdOps();
SimdIsa ActiveSimdIsa();

/// The portable scalar table, whatever is active: always available, and
/// the code every other ISA is checked against.
const SimdOps& ScalarSimdOps();

/// True if `isa` can run on this build + CPU.
bool SimdIsaAvailable(SimdIsa isa);

/// Every ISA available here, kScalar first — what the dispatch sweep in
/// tests iterates over.
std::vector<SimdIsa> AvailableSimdIsas();

/// Pins the active table (test hook / explicit override). Fails with
/// InvalidArgument if the ISA is not available on this build + CPU.
Status SetActiveSimd(SimdIsa isa);

/// Pure resolution policy, separated for testability: maps a DPCF_SIMD
/// value (nullptr/empty = unset) to the ISA dispatch would pick. An unset
/// or unavailable request resolves to the best available ISA (scalar when
/// the request named a specific unavailable one).
SimdIsa ChooseSimdIsa(const char* env_value);

namespace simd_internal {
/// Per-ISA table getters, defined one per translation unit. They return
/// nullptr when the ISA is compiled out or the CPU lacks the feature.
const SimdOps* GetScalarSimdOps();
const SimdOps* GetAvx2SimdOps();
}  // namespace simd_internal

}  // namespace dpcf
