#include "core/bitvector_filter.h"

#include <algorithm>
#include <bit>

namespace dpcf {

BitvectorFilter::BitvectorFilter(uint32_t numbits)
    : numbits_(std::max<uint32_t>(64, (numbits + 63) & ~63u)),
      words_(numbits_ / 64, 0) {}

uint32_t BitvectorFilter::BitsSet() const {
  uint32_t n = 0;
  for (uint64_t w : words_) n += static_cast<uint32_t>(std::popcount(w));
  return n;
}

void BitvectorFilter::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
  keys_added_ = 0;
}

}  // namespace dpcf
