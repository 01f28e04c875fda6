// 64-bit hashing primitives used by the page-count monitors.
//
// Monitors hash PIDs (LinearCounter) and join-key values (BitvectorFilter) on
// the storage-engine hot path, so the hash must be a handful of arithmetic
// instructions. We use the SplitMix64 finalizer (a strong 64-bit mixer) with
// an optional seed so that independent monitors are pairwise independent.

#pragma once

#include <cstdint>

namespace dpcf {

/// Mixes a 64-bit value into a well-distributed 64-bit hash (SplitMix64
/// finalizer). Bijective, so distinct inputs never collide before reduction.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded variant: different seeds give (empirically) independent hash
/// functions over the same key universe.
inline uint64_t Mix64Seeded(uint64_t x, uint64_t seed) {
  return Mix64(x ^ (seed * 0xff51afd7ed558ccdULL));
}

}  // namespace dpcf
