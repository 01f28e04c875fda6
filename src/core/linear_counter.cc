#include "core/linear_counter.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dpcf {

LinearCounter::LinearCounter(uint32_t numbits, uint64_t seed) : seed_(seed) {
  numbits_ = std::max<uint32_t>(64, (numbits + 63) & ~63u);
  words_.assign(numbits_ / 64, 0);
}

uint32_t LinearCounter::BitsSet() const {
  uint32_t n = 0;
  for (uint64_t w : words_) n += static_cast<uint32_t>(std::popcount(w));
  return n;
}

bool LinearCounter::saturated() const { return BitsSet() == numbits_; }

double LinearCounter::Estimate() const {
  uint32_t set = BitsSet();
  uint32_t numzero = numbits_ - set;
  if (numzero == 0) {
    // Saturated bitmap: the true count exceeds what the map can resolve.
    return static_cast<double>(numbits_) *
           std::log(static_cast<double>(numbits_));
  }
  return static_cast<double>(numbits_) *
         -std::log(static_cast<double>(numzero) /
                   static_cast<double>(numbits_));
}

Status LinearCounter::MergeFrom(const LinearCounter& other) {
  if (numbits_ != other.numbits_ || seed_ != other.seed_) {
    return Status::InvalidArgument(
        "LinearCounter merge requires identical numbits and seed");
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return Status::OK();
}

void LinearCounter::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

}  // namespace dpcf
