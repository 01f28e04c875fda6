// Bit vector filters for join page counting (paper Section IV, Fig 5).
//
// During the build phase of a Hash Join (or while consuming the outer of a
// Merge Join), the join-column value of every outer row sets its bit in
// this bitmap. The probe-side table scan then uses MayContain() as a
// *derived semi-join predicate*: a probe row whose bit is set belongs to a
// page that an Index-Nested-Loops join would have fetched.
//
// Addressing is direct: key k sets bit k mod numbits. When the key domain
// has at most numbits values this is collision-free, which is exactly the
// paper's exactness condition ("at least as many bits as distinct values
// of the outer join column ⇒ no false positives"); with fewer bits the
// modulo folds the domain, and collisions can only overestimate the page
// count (no false negatives). There is no hashed mode: a hashed filter's
// per-row false positives are amplified per page and ruin low page counts
// (DESIGN.md section 7).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpcf {

/// Single-probe membership bitmap over int64 join keys.
class BitvectorFilter {
 public:
  explicit BitvectorFilter(uint32_t numbits);

  uint64_t BitFor(int64_t key) const {
    return static_cast<uint64_t>(key) % numbits_;
  }

  void AddKey(int64_t key) {
    uint64_t h = BitFor(key);
    words_[h >> 6] |= (1ULL << (h & 63));
  }

  bool MayContain(int64_t key) const {
    uint64_t h = BitFor(key);
    return (words_[h >> 6] >> (h & 63)) & 1;
  }

  uint32_t numbits() const { return numbits_; }
  uint32_t BitsSet() const;
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }
  int64_t keys_added() const { return keys_added_; }

  /// AddKey + counter, for callers that track how many keys were inserted.
  void AddKeyCounted(int64_t key) {
    AddKey(key);
    ++keys_added_;
  }

  void Reset();

 private:
  uint32_t numbits_;
  int64_t keys_added_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dpcf
