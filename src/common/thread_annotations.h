// Clang Thread Safety Analysis (TSA) vocabulary for the DPCF codebase.
//
// The morsel-parallel scan path (PR 1) established two concurrency
// contracts that used to live only in comments:
//   1. lock order: BufferPool::mu_ is acquired before DiskManager::mu_
//      (the pool's miss path reads from disk while holding its latch);
//   2. every latch-protected member names its latch.
// This header turns those comments into compiler-checked attributes: under
// clang, `-Wthread-safety -Werror=thread-safety` makes an unlatched access
// to a GUARDED_BY member or a pool/disk lock-order inversion a compile
// error (order checking needs `-Wthread-safety-beta`). Under other
// compilers the macros expand to nothing and the wrappers are plain
// std::mutex / std::lock_guard, so gcc builds are unaffected.
//
// Use dpcf::Mutex + dpcf::MutexLock instead of std::mutex for any new
// latch; the lint rule dpcf-mutex-annotation rejects raw std::mutex
// members in src/ (tools/lint/dpcf_lint.py).
//
// PR 7 adds runtime lock-rank enforcement: each long-lived mutex carries a
// rank from dpcf::lock_rank, and -DDPCF_LOCK_RANK=ON builds keep a
// thread-local stack of held ranks that aborts the process on any
// non-increasing acquisition. This covers the compilers where TSA is a
// no-op (gcc, and therefore every sanitizer CI job).

#pragma once

#include <mutex>

#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK
#include <cstdio>
#include <cstdlib>
#endif

#if defined(__clang__) && (!defined(SWIG))
#define DPCF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DPCF_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Declares that a type is a lockable capability ("mutex" is the
// capability kind shown in diagnostics).
#define CAPABILITY(x) DPCF_THREAD_ANNOTATION(capability(x))

// Declares an RAII type whose lifetime acquires/releases a capability.
#define SCOPED_CAPABILITY DPCF_THREAD_ANNOTATION(scoped_lockable)

// Data members: readable/writable only while holding the named mutex.
#define GUARDED_BY(x) DPCF_THREAD_ANNOTATION(guarded_by(x))

// Functions: the caller must already hold (or must NOT hold) the mutex.
#define REQUIRES(...) \
  DPCF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) DPCF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions: acquire/release the mutex as a side effect (lock wrappers).
#define ACQUIRE(...) DPCF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) DPCF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// Lock-ordering declaration: acquiring a mutex declared ACQUIRED_BEFORE
// another while already holding that other one is a compile error under
// -Wthread-safety-beta. This is how the pool -> disk order is encoded.
#define ACQUIRED_BEFORE(...) \
  DPCF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

// Returns the capability itself from a getter (lets annotations on other
// classes name this object's mutex).
#define RETURN_CAPABILITY(x) DPCF_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for code the analysis cannot follow (e.g. lock/unlock
// split across functions). Prefer restructuring over using this.
#define NO_THREAD_SAFETY_ANALYSIS \
  DPCF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dpcf {

/// Global lock-rank table: every long-lived dpcf::Mutex is assigned one of
/// these ranks, and (in DPCF_LOCK_RANK builds) a thread may only acquire a
/// ranked mutex whose rank is STRICTLY GREATER than every ranked mutex it
/// already holds. This is the ACQUIRED_BEFORE documentation turned into a
/// runtime invariant: clang TSA proves the pool->disk order at compile time
/// on clang builds, the rank stack aborts on inversion in every debug /
/// sanitizer run regardless of compiler. Strictness also enforces the
/// "never two shard latches at once" rule, since all shard latches share
/// one rank. The table (mirrored in DESIGN.md section 13):
namespace lock_rank {
inline constexpr int kUnranked = -1;          // exempt (tests, ad hoc)
inline constexpr int kBufferPoolShard = 100;  // BufferPool::Shard::mu
inline constexpr int kDisk = 200;             // DiskManager::mu_
inline constexpr int kEstimationTracker = 310;  // EstimationErrorTracker::mu_
inline constexpr int kDriftMonitor = 315;     // DriftMonitor::mu_
inline constexpr int kMetricsRegistry = 320;  // MetricsRegistry::mu_
inline constexpr int kTraceCollector = 330;   // TraceCollector::mu_
inline constexpr int kEventJournal = 340;     // EventJournal::mu_
}  // namespace lock_rank

#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK
namespace lock_rank_internal {

/// Per-thread stack of held ranked latches. Fixed depth: the deepest legal
/// chain today is shard -> disk (2); 16 leaves generous headroom without
/// heap allocation on the lock path.
struct HeldStack {
  static constexpr int kMaxDepth = 16;
  const void* mu[kMaxDepth];
  int rank[kMaxDepth];
  int depth = 0;
};

inline HeldStack& Held() {
  static thread_local HeldStack stack;
  return stack;
}

/// Aborts if acquiring rank `r` would violate the strict ordering. Called
/// BEFORE blocking on the underlying mutex so an inversion aborts with a
/// diagnostic deterministically instead of deadlocking intermittently.
inline void CheckRank(const void* mu, int r) {
  if (r < 0) return;  // unranked mutexes opt out
  HeldStack& s = Held();
  for (int i = 0; i < s.depth; ++i) {
    if (s.rank[i] >= r) {
      std::fprintf(stderr,
                   "dpcf lock-rank violation: acquiring mutex %p of rank %d "
                   "while holding mutex %p of rank %d (acquisition order "
                   "must be strictly increasing; see the rank table in "
                   "common/thread_annotations.h)\n",
                   mu, r, s.mu[i], s.rank[i]);
      std::abort();
    }
  }
}

inline void PushRank(const void* mu, int r) {
  HeldStack& s = Held();
  if (s.depth < HeldStack::kMaxDepth) {
    s.mu[s.depth] = mu;
    s.rank[s.depth] = r;
    ++s.depth;
  }
  // Overflow (never seen in practice) silently stops tracking the excess;
  // the checker stays sound for the latches it did record.
}

inline void PopRank(const void* mu) {
  HeldStack& s = Held();
  // Scoped MutexLocks release in LIFO order, but Mutex is a BasicLockable
  // whose unlock() any holder may call in any order, so erase by identity
  // rather than popping the top.
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.mu[i] == mu) {
      for (int j = i; j + 1 < s.depth; ++j) {
        s.mu[j] = s.mu[j + 1];
        s.rank[j] = s.rank[j + 1];
      }
      --s.depth;
      return;
    }
  }
}

}  // namespace lock_rank_internal
#endif  // DPCF_LOCK_RANK

/// std::mutex wrapped as a TSA capability. Same cost, same semantics; the
/// additions are that clang tracks who holds it at compile time and, under
/// -DDPCF_LOCK_RANK=ON, the optional rank is enforced at runtime on every
/// acquisition (strictly-increasing order, abort on inversion).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Ranked mutex: see dpcf::lock_rank for the table. Rank checking is
  /// compiled in only under DPCF_LOCK_RANK; otherwise the rank is inert.
  explicit Mutex(int rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK
    lock_rank_internal::CheckRank(this, rank_);
#endif
    mu_.lock();
#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK
    lock_rank_internal::PushRank(this, rank_);
#endif
  }
  void unlock() RELEASE() {
#if defined(DPCF_LOCK_RANK) && DPCF_LOCK_RANK
    lock_rank_internal::PopRank(this);
#endif
    mu_.unlock();
  }

  int rank() const { return rank_; }

 private:
  // The single wrapped instance every other latch builds on. The rank is
  // stored unconditionally (4 bytes) so the layout does not depend on the
  // DPCF_LOCK_RANK flag.
  std::mutex mu_;  // NOLINT(dpcf-mutex-annotation)
  int rank_ = lock_rank::kUnranked;
};

/// RAII lock over dpcf::Mutex (std::lock_guard is not annotated, so the
/// analysis cannot see through it). Not movable: a MutexLock pins one
/// critical section to one scope. The [[nodiscard]] constructor makes an
/// unnamed `MutexLock{&mu};`, which unlocks at the semicolon, a warning.
class SCOPED_CAPABILITY MutexLock {
 public:
  [[nodiscard]] explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_->unlock(); }

 private:
  Mutex* const mu_;
};

}  // namespace dpcf
