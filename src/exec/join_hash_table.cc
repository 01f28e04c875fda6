#include "exec/join_hash_table.h"

#include <bit>
#include <limits>

#include "common/hash.h"
#include "common/string_util.h"

namespace dpcf {

size_t JoinHashTable::Probe(int64_t key) const {
  size_t i = Mix64(static_cast<uint64_t>(key)) & mask_;
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
  slots_.assign(std::bit_ceil(2 * n), Slot{});  // bit_ceil(0) == 1
  mask_ = slots_.size() - 1;

  // Pass 1: claim one slot per distinct key and count its rows.
  for (int64_t key : keys) {
    Slot& s = slots_[Probe(key)];
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
    Slot& s = slots_[Probe(keys[i])];
    rows_[--s.begin] = static_cast<uint32_t>(i);
  }
  return Status::OK();
}

std::span<const uint32_t> JoinHashTable::Find(int64_t key) const {
  const Slot& s = slots_[Probe(key)];
  if (s.count == 0) return {};
  return {rows_.data() + s.begin, s.count};
}

}  // namespace dpcf
