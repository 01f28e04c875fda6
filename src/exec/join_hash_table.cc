#include "exec/join_hash_table.h"

#include <bit>
#include <limits>

#include "common/string_util.h"

namespace dpcf {

size_t JoinHashTable::Probe(int64_t key, uint64_t hash) const {
  size_t i = hash & mask_;
  // At most half the slots are taken, so the walk meets an empty slot.
  while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask_;
  return i;
}

Status JoinHashTable::Build(std::span<const int64_t> keys) {
  const size_t n = keys.size();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("join build side of %zu rows exceeds 32-bit row indexes",
                  n));
  }
  const size_t slot_count = std::bit_ceil(2 * n);  // bit_ceil(0) == 1
  slots_.assign(slot_count, Slot{});
  mask_ = slot_count - 1;
  // The filter's 8 * slot_count bits take the hash's top bits; the home
  // slot takes its low bits.
  filter_.assign(slot_count, 0);
  filter_shift_ = 64 - 3 - std::countr_zero(slot_count);

  // Pass 1: set each key's filter bit, claim one slot per distinct key
  // and count its rows.
  for (int64_t key : keys) {
    const uint64_t hash = Mix64(static_cast<uint64_t>(key));
    const uint64_t bit = hash >> filter_shift_;
    filter_[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
    Slot& s = slots_[Probe(key, hash)];
    s.key = key;
    ++s.count;
  }
  // Lay the runs out back to back, each `begin` parked at its run's end.
  uint32_t end = 0;
  for (Slot& s : slots_) {
    end += s.count;
    s.begin = end;
  }
  // Pass 2: fill every run from its back while walking the rows in
  // reverse, which leaves each run in insertion order and `begin` at its
  // first row.
  rows_.resize(n);
  for (size_t i = n; i-- > 0;) {
    Slot& s = slots_[Probe(keys[i], Mix64(static_cast<uint64_t>(keys[i])))];
    rows_[--s.begin] = static_cast<uint32_t>(i);
  }
  return Status::OK();
}

}  // namespace dpcf
