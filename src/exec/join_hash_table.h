// JoinHashTable: the one map from int64 join keys to build-row indexes,
// shared by HashJoinOp and the exact join oracle (ExactJoinCardinality).
//
// The table is built once from the build side's keys and is read-only
// afterwards. It is flat: a power-of-two slot array holding at least 2x
// as many slots as rows, linear probing from Mix64(key), one slot per
// distinct key. A key's row indexes sit in one contiguous run of a single
// index array, in insertion order, so Find returns a span. Nearly every
// Fig 8 probe misses, and a miss here costs one hash and a short scan of
// adjacent slots, never a pointer chase.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dpcf {

class JoinHashTable {
 public:
  /// Replaces the contents with keys[i] -> i for every i. Fails only when
  /// the row count does not fit a 32-bit row index.
  Status Build(std::span<const int64_t> keys);

  /// Row indexes whose key equals `key`, in insertion order; empty when
  /// the key is absent. Valid until the table is rebuilt, assigned to or
  /// destroyed.
  std::span<const uint32_t> Find(int64_t key) const;

  /// Number of slots (a power of two, >= 2x the row count; 1 when empty).
  size_t slot_count() const { return slots_.size(); }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t begin = 0;  // first index of this key's run in rows_
    uint32_t count = 0;  // 0 marks an empty slot
  };

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(int64_t key) const;

  // One empty slot until the first Build, so Find needs no special case.
  std::vector<Slot> slots_ = std::vector<Slot>(1);
  std::vector<uint32_t> rows_;
  size_t mask_ = 0;
};

}  // namespace dpcf
