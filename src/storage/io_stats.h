// I/O accounting for the simulated disk.
//
// The paper evaluates plans by wall-clock time on a cold cache; our substrate
// replaces the physical disk with deterministic accounting. Every physical
// page read is classified as *sequential* (the page immediately following the
// previously read page of the same segment — a streaming scan) or *random*
// (anything else — a disk seek). Simulated elapsed time is derived from these
// counters by SimulatedMillis (below), priced with SimCostParams.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace dpcf {

/// Relaxed atomic counter that still behaves like a plain int64 value:
/// copyable, assignable from/convertible to int64_t. Concurrent increments
/// from morsel-parallel workers are safe; cross-counter consistency is only
/// guaranteed at quiescent points (before/after a run), which is when the
/// executor snapshots them.
///
/// Thread-safety contract: this counter is its own synchronization — it
/// carries no GUARDED_BY and needs no latch (the dpcf-mutex-annotation
/// lint rule and clang TSA only police non-atomic shared state). Copy and
/// assignment are NOT atomic as a whole (load then store) and are reserved
/// for quiescent snapshots/Reset; the concurrent-safe operations are the
/// increments and the int64_t conversion.
class AtomicCounter {
 public:
  AtomicCounter(int64_t v = 0) : v_(v) {}
  AtomicCounter(const AtomicCounter& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  AtomicCounter& operator=(const AtomicCounter& o) {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator=(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator int64_t() const { return v_.load(std::memory_order_relaxed); }

  AtomicCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator+=(int64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator-=(int64_t d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<int64_t> v_;
};

// The simulated hot path charges I/O from every scan worker; a counter
// that silently degraded to a lock would serialize them all.
static_assert(std::atomic<int64_t>::is_always_lock_free,
              "AtomicCounter must be lock-free on this platform");

/// Counter block for the simulated disk + buffer pool. Counters are relaxed
/// atomics so concurrent scan workers can charge I/O without tearing; reset
/// between measured runs.
struct IoStats {
  // Physical reads (buffer-pool misses reaching the disk manager).
  AtomicCounter physical_seq_reads;
  AtomicCounter physical_rand_reads;

  // Page images the loaders (HeapFile, Btree) write while a table or index
  // is built, one per page. The buffer pool never writes, so a measured
  // run charges none and simulated time does not price them.
  AtomicCounter physical_writes;

  // Speculative reads issued by scan readahead. Charged *instead of* a
  // physical read so a prefetched page that is never consumed does not
  // inflate the figures; when the scan later fetches it, that fetch is a
  // logical read + buffer hit. Invariant at quiescent points:
  //   logical_reads == buffer_hits + physical_reads().
  AtomicCounter prefetch_reads;

  // Demand fetches that found their frame resident *because* a kPrefetch
  // read loaded it (counted once per prefetched load, on first hit), so
  // prefetch_hits / prefetch_reads is the share of readahead the scan
  // used. Invariant at quiescent points: prefetch_hits <= prefetch_reads.
  AtomicCounter prefetch_hits;

  // Prefetch requests the buffer pool dropped because the page's shard had
  // no evictable frame (readahead running too far ahead of the consumers).
  // Nothing was read, so nothing else is charged; the scan later reads the
  // page on demand.
  AtomicCounter prefetch_rejected;

  // Logical I/O: every *successful* buffer-pool page request, hit or miss.
  // Failed fetches (e.g. ResourceExhausted) charge nothing, which keeps the
  // invariant above exact rather than approximate under contention.
  AtomicCounter logical_reads;
  AtomicCounter buffer_hits;

  // Page images handed out by DiskManager::RawPage, the latch-cheap escape
  // hatch the offline paths (histogram/statistics builds, index builds,
  // workload generation) use to scan segments without disturbing the buffer
  // pool. Counted so no page access is invisible to the accounting
  // (dpcf-charge-conservation polices this); charged no simulated time,
  // since these paths sit outside the measured query runs.
  AtomicCounter raw_page_reads;

  int64_t physical_reads() const {
    return physical_seq_reads + physical_rand_reads;
  }

  void Reset() { *this = IoStats(); }

  IoStats& operator+=(const IoStats& o) {
    physical_seq_reads += o.physical_seq_reads;
    physical_rand_reads += o.physical_rand_reads;
    physical_writes += o.physical_writes;
    prefetch_reads += o.prefetch_reads;
    prefetch_hits += o.prefetch_hits;
    prefetch_rejected += o.prefetch_rejected;
    logical_reads += o.logical_reads;
    buffer_hits += o.buffer_hits;
    raw_page_reads += o.raw_page_reads;
    return *this;
  }

  /// Field-wise subtraction, for before/after deltas at quiescent points
  /// (the executor and the operator profiler both snapshot this way).
  IoStats& operator-=(const IoStats& o) {
    physical_seq_reads -= o.physical_seq_reads;
    physical_rand_reads -= o.physical_rand_reads;
    physical_writes -= o.physical_writes;
    prefetch_reads -= o.prefetch_reads;
    prefetch_hits -= o.prefetch_hits;
    prefetch_rejected -= o.prefetch_rejected;
    logical_reads -= o.logical_reads;
    buffer_hits -= o.buffer_hits;
    raw_page_reads -= o.raw_page_reads;
    return *this;
  }

  std::string ToString() const;
};

/// Time the buffer pool's fetchers spent blocked, counted by the pool the
/// way the disk counts IoStats: relaxed atomics, read as before/after
/// deltas at quiescent points (operator profiling does, for EXPLAIN
/// ANALYZE's stall line). Microseconds are wall-clock: stalls are real
/// blocked time, not simulated cost.
struct StallStats {
  // Demand misses, each waiting out its own read until it is due: one per
  // physical read, with the miss's measured wall time.
  AtomicCounter io_waits;
  AtomicCounter io_wait_us;
  // Fetches that found their page's read (another fetcher's, or
  // readahead's) not yet due, and waited it out.
  AtomicCounter loading_waits;
  AtomicCounter loading_wait_us;

  bool empty() const { return io_waits == 0 && loading_waits == 0; }

  StallStats& operator+=(const StallStats& o) {
    io_waits += o.io_waits;
    io_wait_us += o.io_wait_us;
    loading_waits += o.loading_waits;
    loading_wait_us += o.loading_wait_us;
    return *this;
  }

  StallStats& operator-=(const StallStats& o) {
    io_waits -= o.io_waits;
    io_wait_us -= o.io_wait_us;
    loading_waits -= o.loading_waits;
    loading_wait_us -= o.loading_wait_us;
    return *this;
  }
};

/// Tunable simulated device parameters (milliseconds per page / per op).
///
/// Defaults model a paper-era (2008) commodity drive behind a DBMS doing
/// read-ahead: sequential pages stream at ~100 MB/s (0.08 ms per 8 KiB page)
/// while a random page fetch costs a seek+rotation (~1 ms effective once the
/// engine's prefetching is accounted for). CPU work is charged per processed
/// row and per monitor operation so that monitoring overhead (paper Figs 7/9)
/// shows up in simulated time too.
struct SimCostParams {
  double seq_read_ms = 0.08;
  double rand_read_ms = 1.0;
  double cpu_row_ms = 0.0002;        // per row pushed through an operator
  double cpu_pred_atom_ms = 0.00005; // per atomic predicate evaluation
  double cpu_hash_ms = 0.00004;      // per monitor/bitvector hash
  double cpu_probe_ms = 0.0002;      // per hash-table probe/insert
  /// Per-row flag bookkeeping of the grouped-page counters ("a single
  /// comparison for each row", paper III-B) — an order of magnitude
  /// cheaper than a hash.
  double cpu_monitor_row_ms = 0.00001;
};

/// CPU-side counters maintained by the execution engine (the exec module
/// increments them; they live here so SimulatedMillis can combine both).
///
/// Deliberately NOT atomic: these sit on the per-row hot path (several
/// increments per row), where shared atomics would serialize scan workers on
/// one cache line. Parallel operators give each worker a thread-local
/// CpuStats and merge field-wise (operator+=) at close — same totals, no
/// contention.
struct CpuStats {
  int64_t rows_processed = 0;
  int64_t predicate_atom_evals = 0;
  int64_t monitor_hash_ops = 0;
  int64_t monitor_row_ops = 0;
  int64_t hash_table_ops = 0;

  void Reset() { *this = CpuStats(); }

  CpuStats& operator+=(const CpuStats& o) {
    rows_processed += o.rows_processed;
    predicate_atom_evals += o.predicate_atom_evals;
    monitor_hash_ops += o.monitor_hash_ops;
    monitor_row_ops += o.monitor_row_ops;
    hash_table_ops += o.hash_table_ops;
    return *this;
  }

  CpuStats& operator-=(const CpuStats& o) {
    rows_processed -= o.rows_processed;
    predicate_atom_evals -= o.predicate_atom_evals;
    monitor_hash_ops -= o.monitor_hash_ops;
    monitor_row_ops -= o.monitor_row_ops;
    hash_table_ops -= o.hash_table_ops;
    return *this;
  }

  std::string ToString() const;
};

/// Deterministic simulated elapsed time for a run, in milliseconds.
double SimulatedMillis(const IoStats& io, const CpuStats& cpu,
                       const SimCostParams& params = SimCostParams());

}  // namespace dpcf
