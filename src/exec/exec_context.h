// Execution context: the runtime state shared by the operators of one plan,
// and the RE/SE communication boundary.
//
// PageIds exist only below this boundary (scan / fetch operators); the
// relational-engine operators (joins, aggregates) never see them. Join keys
// cross it downward, never page ids: a relational-engine join registers a
// BitvectorFilter in a pre-allocated slot of the *filter slot table* (the
// paper's SE→RE "callback" in reverse), and a storage-engine scan's
// monitor bundle probes it as a derived semi-join predicate (Fig 5). A hash
// join also hands its probe child its key table
// (Operator::SetJoinKeyFilter), the same predicate used to drop rows.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/bitvector_filter.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace dpcf {

class TraceCollector;   // obs/trace_collector.h
class MetricsRegistry;  // obs/metrics_registry.h
class EventJournal;     // obs/event_journal.h

/// Per-execution mutable state. Create one per plan run.
class ExecContext {
 public:
  explicit ExecContext(BufferPool* pool, uint64_t seed = 0x5eed)
      : pool_(pool), seed_(seed) {}

  BufferPool* pool() const { return pool_; }

  /// The run's one CPU tally. Volcano operators increment it through this
  /// pointer on the per-row hot path. A parallel scan's workers keep their
  /// own tallies, and the scan adds them in here after joining the
  /// workers, so only one thread ever touches it.
  CpuStats* cpu() { return &cpu_; }

  /// Per-operator profiling (obs/op_profile.h). Off by default; the
  /// Operator wrappers snapshot IoStats, cpu() and the pool's StallStats
  /// around every call when on.
  bool profiling() const { return profiling_; }
  void set_profiling(bool on) { profiling_ = on; }

  /// Trace collector for span emission, or null. The operators and the
  /// parallel scan check trace()->enabled() before reading any clock.
  TraceCollector* trace() const { return trace_; }
  void set_trace(TraceCollector* trace) { trace_ = trace; }

  /// Metrics registry for engine metrics emitted from operators (e.g. the
  /// scan_batch_rows histogram), or null when metrics are off. Operators
  /// resolve their handles once at Open.
  MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Flight-recorder journal for exec-layer events (monitor build/merge),
  /// or null. Storage-layer events are journaled by
  /// the pool/disk directly; this pointer only feeds the exec sites.
  EventJournal* journal() const { return journal_; }
  void set_journal(EventJournal* journal) { journal_ = journal; }

  /// Query id stamped on every trace span emitted while this context's
  /// plan runs, so concurrent sessions can untangle their events in one
  /// trace file. 0 means "unassigned" (spans carry no qid argument).
  uint64_t query_id() const { return query_id_; }
  void set_query_id(uint64_t qid) { query_id_ = qid; }

  uint64_t seed() const { return seed_; }

  /// Reserves a slot a join will later fill with its bitvector filter.
  /// Called at plan-construction time so scans can reference the slot.
  int AllocateFilterSlot() {
    filter_slots_.push_back(nullptr);
    return static_cast<int>(filter_slots_.size() - 1);
  }

  /// Registers `filter` (ownership transferred) into `slot`. The filter
  /// becomes visible to scan monitors immediately — including the
  /// partial-filter Merge Join variant, where bits keep being added while
  /// the probe side is already scanning.
  Status SetFilter(int slot, std::unique_ptr<BitvectorFilter> filter);

  /// Mutable access for joins that grow a registered filter incrementally.
  BitvectorFilter* MutableFilter(int slot);

  const std::vector<const BitvectorFilter*>& filter_slots() const {
    return filter_slots_;
  }

 private:
  BufferPool* pool_;
  uint64_t seed_;
  CpuStats cpu_;
  bool profiling_ = false;
  TraceCollector* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  EventJournal* journal_ = nullptr;
  uint64_t query_id_ = 0;
  std::vector<const BitvectorFilter*> filter_slots_;
  std::vector<std::unique_ptr<BitvectorFilter>> owned_filters_;
};

}  // namespace dpcf
