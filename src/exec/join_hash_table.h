// JoinHashTable: the one map from int64 join keys to build-row indexes,
// shared by HashJoinOp and the exact join oracle (ExactJoinCardinality).
//
// The table is built once from the build side's keys and is read-only
// afterwards. It is flat: a power-of-two slot array holding at least 2x
// as many slots as rows, linear probing from Mix64(key), one slot per
// distinct key. A key's row indexes sit in one contiguous run of a single
// index array, in insertion order, so Find returns a span.
//
// Nearly every Fig 8 probe misses, so a key filter sits in front of the
// slots: one bit array of 8 bits per slot (at least 16 bits per key),
// addressed by the top bits of the same Mix64(key) whose low bits pick the
// home slot. A miss the filter rejects costs one hash and one bit load from
// an array a fraction of the slots' size; only filter passes (hits and
// about n / (8 * slot_count()) of the misses) walk the slots.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
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
  std::span<const uint32_t> Find(int64_t key) const {
    const uint64_t hash = Mix64(static_cast<uint64_t>(key));
    if (!FilterPasses(hash)) return {};
    const Slot& s = slots_[Probe(key, hash)];
    if (s.count == 0) return {};
    return {rows_.data() + s.begin, s.count};
  }

  /// The key filter alone: false means `key` is absent; true means it may
  /// be present (every built key passes, and some absent ones do).
  bool MayContain(int64_t key) const {
    return FilterPasses(Mix64(static_cast<uint64_t>(key)));
  }

  /// Number of slots (a power of two, >= 2x the row count; 1 when empty).
  size_t slot_count() const { return slots_.size(); }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t begin = 0;  // first index of this key's run in rows_
    uint32_t count = 0;  // 0 marks an empty slot
  };

  /// Bit `hash >> filter_shift_` of the filter, one byte per slot.
  bool FilterPasses(uint64_t hash) const {
    const uint64_t bit = hash >> filter_shift_;
    return (filter_[bit >> 3] >> (bit & 7)) & 1;
  }

  /// The slot holding `key` (whose Mix64 is `hash`), or the empty slot
  /// where it would go.
  size_t Probe(int64_t key, uint64_t hash) const;

  // One empty slot and an empty filter until the first Build, so Find
  // needs no special case.
  std::vector<Slot> slots_ = std::vector<Slot>(1);
  std::vector<uint32_t> rows_;
  size_t mask_ = 0;
  std::vector<uint8_t> filter_ = std::vector<uint8_t>(1);
  int filter_shift_ = 61;  // 64 - log2(8 * slot_count())
};

}  // namespace dpcf
