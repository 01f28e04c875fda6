// Probabilistic distinct counting over PIDs (paper Fig 3).
//
// Linear ("bitmap") counting of Whang, Vander-Zanden & Taylor: hash each PID
// into a bitmap and estimate the number of distinct PIDs from the fraction
// of bits left unset:   n̂ = numbits · (−ln(numzero / numbits)).
// This runs inside the Fetch operator of Index Seek / Index Intersection /
// INL-join plans, where the grouped-page-access property does not hold and
// exact counting would require full duplicate elimination. The estimator is
// the maximum-likelihood estimator and needs well under one bit per page for
// high accuracy.

#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace dpcf {

/// Fixed-size bitmap distinct-value estimator.
class LinearCounter {
 public:
  /// `numbits` is rounded up to a multiple of 64 (>= 64). `seed` picks the
  /// hash function, making independent counters pairwise independent.
  explicit LinearCounter(uint32_t numbits, uint64_t seed = 0);

  /// Hashes `value` (a packed PID) and sets its bit. One hash op.
  void Add(uint64_t value) {
    uint64_t h = Mix64Seeded(value, seed_) % numbits_;
    words_[h >> 6] |= (1ULL << (h & 63));
  }

  /// numbits × −ln(numzero / numbits). When the bitmap saturates (numzero
  /// == 0) the estimate is a lower bound, reported as numbits·ln(numbits).
  double Estimate() const;

  bool saturated() const;
  uint32_t numbits() const { return numbits_; }
  uint32_t BitsSet() const;
  uint64_t seed() const { return seed_; }
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Folds `other` into this counter by bitwise OR of the bitmaps. Linear
  /// counting is a union-closed sketch: hash(v) sets the same bit no matter
  /// which counter observed v, so OR(A, B) is exactly the bitmap of A ∪ B
  /// and the merged Estimate() equals a single counter fed both streams.
  /// Requires identical geometry (numbits) and hash seed.
  Status MergeFrom(const LinearCounter& other);

  void Reset();

 private:
  uint32_t numbits_;
  uint64_t seed_;
  std::vector<uint64_t> words_;
};

}  // namespace dpcf
