// Catalog and Database facade.
//
// Database owns the simulated disk, the buffer pool and the catalog of
// tables and indexes, and is the entry point a library user touches first
// (see examples/quickstart.cc). ColdCache() reproduces the paper's
// cold-cache measurement setup between runs.
//
// Tables and indexes are build-once: a table is loaded through a
// TableBuilder, its indexes are then bulk-built by CreateIndex, and nothing
// writes to either afterwards, so statistics, feedback and learned DPC
// histograms never go stale.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/secondary_index.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace_collector.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "table/table.h"

namespace dpcf {

/// Name → object maps for tables and indexes. Owned by Database.
class Catalog {
 public:
  Status AddTable(std::unique_ptr<Table> table);
  Status AddIndex(std::unique_ptr<Index> index);

  Table* GetTable(const std::string& name) const;
  Index* GetIndex(const std::string& name) const;

  /// All indexes whose base table is `table`.
  std::vector<Index*> IndexesForTable(const Table* table) const;

  std::vector<Table*> Tables() const;
  std::vector<Index*> Indexes() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<Index>> indexes_;
};

/// Observability toggles (DESIGN.md section 11). The registry and journal
/// objects always exist on the Database; these flags decide whether the
/// storage layer publishes into them. Tracing has no option: it is
/// Database::trace()->set_enabled().
struct ObservabilityOptions {
  /// Attach the storage layer (buffer pool, disk manager, monitor manager)
  /// to the metrics registry. On by default: publication is relaxed-atomic
  /// increments behind branch-predictable null checks.
  bool metrics = true;
  /// Wire the flight-recorder event journal (obs/event_journal.h) into the
  /// storage layer. On by default: recording appends to a preallocated
  /// ring under one latch, cheap enough to leave on in production
  /// (bench_obs_overhead gates it).
  bool journal = true;
};

struct DatabaseOptions {
  size_t page_size = kDefaultPageSize;
  size_t buffer_pool_pages = 4096;
  /// Device channels readahead's reads queue on — the simulated device
  /// queue depth (DiskManagerOptions::io_threads). Demand reads do not
  /// queue on them.
  int io_threads = 2;
  ObservabilityOptions observability;
};

/// Top-level engine object: storage + catalog.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  /// Creates an empty table; load rows through a TableBuilder on the
  /// returned object. `cluster_key_col` is required iff clustered.
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             TableOrganization organization,
                             int cluster_key_col = -1);

  /// Builds an index over an already-loaded table.
  Result<Index*> CreateIndex(const std::string& name,
                             const std::string& table_name,
                             const std::vector<int>& key_cols,
                             bool is_clustered_key = false);
  Result<Index*> CreateIndex(const std::string& name,
                             const std::string& table_name,
                             const std::vector<std::string>& key_col_names,
                             bool is_clustered_key = false);

  Table* GetTable(const std::string& name) const {
    return catalog_.GetTable(name);
  }
  Index* GetIndex(const std::string& name) const {
    return catalog_.GetIndex(name);
  }
  const Catalog& catalog() const { return catalog_; }

  DiskManager* disk() { return &disk_; }
  BufferPool* buffer_pool() { return &pool_; }
  const DatabaseOptions& options() const { return options_; }

  /// Engine-wide metric store. Always present; the storage layer publishes
  /// into it when options.observability.metrics is on. Counters are
  /// cumulative for the Database's lifetime — ColdCache() zeroes IoStats
  /// but never the registry (Prometheus counters don't reset).
  MetricsRegistry* metrics() { return &metrics_; }

  /// Trace-event collector. Always present and off until
  /// trace()->set_enabled(true): spans read a clock.
  TraceCollector* trace() { return &trace_; }

  /// Flight-recorder journal, or null when options.observability.journal
  /// is off (callers treat a null journal as "don't record").
  EventJournal* journal() {
    return options_.observability.journal ? &journal_ : nullptr;
  }

  /// Empties the buffer pool and zeroes the I/O counters — the state in
  /// which the paper times every plan.
  Status ColdCache();

 private:
  DatabaseOptions options_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  // Declared before disk_/pool_, which record into it, so it outlives
  // them.
  EventJournal journal_;
  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
};

}  // namespace dpcf
