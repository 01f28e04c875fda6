// Per-thread stall attribution for the EXPLAIN ANALYZE breakdown.
//
// The storage layer blocks in two distinct places — waiting out the device
// time of the thread's own miss read (I/O wait), and waiting out a read
// another thread or readahead started for the same page (loading wait).
// Which query was stalled is information only the *blocked* thread has, so
// attribution rides a thread-local sink: the executor (driver thread) and
// the parallel scan's workers install a StallScope around their work, the
// blocking sites call ChargeStall with the measured microseconds, and the
// per-thread tallies are folded into the ExecContext exactly like
// CpuStats. With no scope installed (offline paths) the charge is a single
// thread-local load and a branch.

#pragma once

#include <cstdint>
#include <string>

namespace dpcf {

/// Counters and waited-microsecond totals for one thread (or, after
/// merging, one query). Microseconds are wall-clock: stalls are real
/// blocked time, not simulated cost.
struct StallStats {
  int64_t io_wait_us = 0;
  int64_t loading_wait_us = 0;
  int64_t io_waits = 0;
  int64_t loading_waits = 0;

  int64_t total_wait_us() const { return io_wait_us + loading_wait_us; }
  bool empty() const { return io_waits == 0 && loading_waits == 0; }

  void Reset() { *this = StallStats(); }

  StallStats& operator+=(const StallStats& o) {
    io_wait_us += o.io_wait_us;
    loading_wait_us += o.loading_wait_us;
    io_waits += o.io_waits;
    loading_waits += o.loading_waits;
    return *this;
  }

  StallStats& operator-=(const StallStats& o) {
    io_wait_us -= o.io_wait_us;
    loading_wait_us -= o.loading_wait_us;
    io_waits -= o.io_waits;
    loading_waits -= o.loading_waits;
    return *this;
  }

  std::string ToString() const;
};

enum class StallKind {
  kIoWait,    // demand miss waiting on the (simulated) device
  kLoadWait,  // a read another thread or readahead started, not yet due
};

/// RAII: installs `sink` as the calling thread's stall accumulator for the
/// scope's lifetime, restoring the previous sink (scopes nest; the
/// innermost wins, matching how a sub-plan's stalls belong to its run).
class StallScope {
 public:
  [[nodiscard]] explicit StallScope(StallStats* sink);
  ~StallScope();
  StallScope(const StallScope&) = delete;
  StallScope& operator=(const StallScope&) = delete;

 private:
  StallStats* prev_;
};

/// The calling thread's active sink, or null. Blocking sites use this to
/// skip the clock reads entirely when nobody is attributing.
StallStats* CurrentStallSink();

/// Charges `us` microseconds of `kind` to the calling thread's sink;
/// no-op without one.
void ChargeStall(StallKind kind, int64_t us);

}  // namespace dpcf
