#include "exec/parallel_scan.h"

#include <atomic>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "exec/readahead.h"
#include "exec/scan_ops.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/stall_tracker.h"
#include "obs/trace_collector.h"

namespace dpcf {

namespace {

/// Shared cursor between the scan workers and the readahead thread. The
/// prefetcher walks pages in order and sleeps whenever it is `window` pages
/// ahead of the slowest published consumption point; workers bump
/// pages_consumed per finished morsel (coarse on purpose — one latch
/// round-trip per morsel, not per page).
struct ReadaheadState {
  // Highest rank: a leaf latch — nothing else is ever acquired while it
  // is held (workers and prefetcher lock it only to bump/read the
  // cursor, never across a pool or disk call).
  Mutex mu{lock_rank::kScanReadahead};
  std::condition_variable_any cv;
  int64_t pages_consumed GUARDED_BY(mu) = 0;
  bool stop GUARDED_BY(mu) = false;
};

/// One worker's tallies during a scan, folded into the ExecContext
/// (MergeCpu, MergeStall) as the worker finishes.
struct ParallelWorkerStats {
  CpuStats cpu;
  /// Blocked time this worker spent in the storage layer (demand-miss I/O
  /// wait, submission-ring backpressure, waiting behind another thread's
  /// kLoading frame), charged through the worker's StallScope.
  StallStats stall;
};
}  // namespace

ParallelTableScanOp::ParallelTableScanOp(
    Table* table, Predicate pushed, std::vector<int> projection,
    std::unique_ptr<ScanMonitorBundle> monitors, ParallelScanOptions options)
    : table_(table),
      projection_(std::move(projection)),
      monitors_(std::move(monitors)),
      options_(options),
      step_(*table, std::move(pushed), options.vectorized,
            monitors_ != nullptr) {
  if (options_.num_threads < 1) options_.num_threads = 1;
  if (options_.morsel_pages < 1) options_.morsel_pages = 1;
}

Status ParallelTableScanOp::OpenImpl(ExecContext* ctx) {
  const HeapFile* file = table_->file();
  const Schema* schema = &table_->schema();
  const int num_workers = options_.num_threads;
  LogHistogram* const batch_rows = step_.BatchRowsHistogram(*ctx);

  MorselQueue queue(file->page_count(), options_.morsel_pages);
  morsel_out_.assign(queue.num_morsels(), {});
  std::vector<ParallelWorkerStats> worker_stats(
      static_cast<size_t>(num_workers));
  drain_morsel_ = 0;
  drain_row_ = 0;

  // Thread-local monitor clones; worker 0 reuses the operator's own bundle
  // so the serial (1-thread) path involves no copy at all.
  std::vector<std::unique_ptr<ScanMonitorBundle>> worker_bundles(
      static_cast<size_t>(num_workers));
  if (monitors_ != nullptr) {
    for (int w = 1; w < num_workers; ++w) {
      worker_bundles[static_cast<size_t>(w)] = monitors_->Clone();
    }
  }

  // Morsel readahead: a dedicated prefetch thread walks the pages in scan
  // order and keeps up to `window` of them resident ahead of the workers,
  // overlapping (simulated) I/O with predicate evaluation and monitor
  // updates. The window is clamped to half the pool so prefetch pressure
  // can never evict pages the scan is still consuming.
  // Non-driver threads (morsel workers, the readahead thread) exist only
  // inside this region; cpu_stats() asserts no region is live.
  ExecContext::WorkerRegion worker_region(ctx);
  TraceCollector* const tc = ctx->trace();
  EventJournal* const journal = ctx->journal();
  if (journal != nullptr && monitors_ != nullptr) {
    journal->Record(JournalEvent::kMonitorBuild,
                    static_cast<uint64_t>(num_workers));
  }

  ReadaheadState ra;
  std::thread ra_thread;
  std::unique_ptr<AdaptiveReadaheadController> ra_controller;
  const SegmentId segment = file->segment();
  const PageNo total_pages = file->page_count();
  int64_t window = static_cast<int64_t>(options_.prefetch_pages);
  const int64_t half_pool = static_cast<int64_t>(ctx->pool()->capacity() / 2);
  if (window > half_pool) window = half_pool;
  // Resolved unconditionally so the series exists (and reads 0) even for
  // scans with readahead off — dashboards never see a dead series.
  Gauge* const window_gauge =
      ctx->metrics() != nullptr
          ? ctx->metrics()->GetGauge(
                "scan_readahead_window_pages",
                "Current adaptive readahead window of the last scan")
          : nullptr;
  if (window_gauge != nullptr && (window <= 0 || total_pages == 0)) {
    window_gauge->Set(0);
  }
  if (window > 0 && total_pages > 0) {
    BufferPool* pool = ctx->pool();
    AdaptiveReadaheadConfig ra_cfg;
    ra_cfg.initial_window = window;
    ra_cfg.max_window = half_pool;
    ra_controller = std::make_unique<AdaptiveReadaheadController>(
        ra_cfg, pool->disk()->io_stats(), window_gauge, journal);
    // Prime the initial window before any worker starts, so the
    // prefetch-vs-demand split of the scan's first pages does not depend
    // on how quickly the first worker gets going: those pages are always
    // charged as prefetch_reads on a cold cache. (Priming submits one
    // batch; a worker demanding one of these pages before its completion
    // lands simply waits behind the kLoading frame.)
    const PageNo primed =
        total_pages < static_cast<PageNo>(window)
            ? total_pages
            : static_cast<PageNo>(window);
    std::vector<PageId> prime_batch;
    prime_batch.reserve(static_cast<size_t>(primed));
    for (PageNo p = 0; p < primed; ++p) {
      prime_batch.push_back(PageId{segment, p});
    }
    pool->PrefetchBatch(prime_batch);
    const uint64_t query_id = ctx->query_id();
    AdaptiveReadaheadController* const controller = ra_controller.get();
    const int64_t batch_pages =
        static_cast<int64_t>(options_.morsel_pages);
    ra_thread = std::thread([&ra, ctx, pool, controller, segment,
                             total_pages, primed, query_id, batch_pages] {
      TraceCollector::QueryIdScope qid_scope(query_id);
      // Backpressure inside PrefetchBatch (submission ring full) is blocked
      // time of this thread; fold it into the context like a worker's.
      StallStats stall;
      {
        StallScope stall_scope(&stall);
        PageNo next = primed;
        std::vector<PageId> batch;
        while (next < total_pages) {
          ra.mu.lock();
          while (!ra.stop && static_cast<int64_t>(next) >=
                                 ra.pages_consumed + controller->window()) {
            ra.cv.wait(ra.mu);
          }
          const bool stop_requested = ra.stop;
          const int64_t consumed = ra.pages_consumed;
          ra.mu.unlock();
          if (stop_requested) break;
          // Submit up to one morsel's worth in a single batch, staying
          // inside the (possibly just-narrowed) window.
          int64_t limit = consumed + controller->window();
          if (limit > static_cast<int64_t>(total_pages)) {
            limit = static_cast<int64_t>(total_pages);
          }
          int64_t end = static_cast<int64_t>(next) + batch_pages;
          if (end > limit) end = limit;
          if (end <= static_cast<int64_t>(next)) continue;
          batch.clear();
          for (PageNo p = next; p < static_cast<PageNo>(end); ++p) {
            batch.push_back(PageId{segment, p});
          }
          pool->PrefetchBatch(batch);
          next = static_cast<PageNo>(end);
          // Feedback: react to the hit/rejection deltas this batch exposed.
          controller->Update();
        }
      }
      ctx->MergeStall(stall);
    });
  }
  ReadaheadState* ra_ptr = ra_thread.joinable() ? &ra : nullptr;

  std::atomic<bool> stop{false};
  Status status = RunOnWorkers(num_workers, [&](int w) -> Status {
    // Query-id tagging is thread-local; each worker re-opens the scope so
    // its morsel spans (and any buffer-pool miss spans beneath them) carry
    // the same qid as the driver's.
    TraceCollector::QueryIdScope qid_scope(ctx->query_id());
    ParallelWorkerStats& ws = worker_stats[static_cast<size_t>(w)];
    // Blocked time in the storage layer (miss waits, ring backpressure,
    // kLoading waits) lands in this worker's tally; folded in below next
    // to the CPU tally. On the 1-thread path this shadows the driver's
    // executor-installed scope for the duration of the scan, which is
    // exactly right: the time still reaches the context via MergeStall.
    StallScope stall_scope(&ws.stall);
    CpuStats* cpu = &ws.cpu;
    ScanMonitorBundle* bundle =
        monitors_ == nullptr
            ? nullptr
            : (w == 0 ? monitors_.get()
                      : worker_bundles[static_cast<size_t>(w)].get());
    // Worker-local page state; the step itself is shared.
    HeapPageStep::Scratch scratch(schema);
    scratch.batch_rows = batch_rows;
    uint32_t morsel;
    PageNo begin, end;
    while (queue.Next(&morsel, &begin, &end)) {
      if (stop.load(std::memory_order_relaxed)) return Status::OK();
      const bool traced = tc != nullptr && tc->enabled();
      const int64_t span_begin = traced ? tc->NowUs() : 0;
      std::vector<Tuple>& out = morsel_out_[morsel];
      for (PageNo p = begin; p < end; ++p) {
        auto guard = ctx->pool()->Fetch(PageId{file->segment(), p});
        if (!guard.ok()) {
          stop.store(true, std::memory_order_relaxed);
          return guard.status();
        }
        const PageGuard page = std::move(guard).value();
        // The morsel's survivors are buffered, not streamed, so nothing
        // downstream can change between evaluating and observing a page.
        const uint32_t survivors = step_.Eval(page.data(), cpu, &scratch);
        step_.Observe(p, bundle, cpu, ctx->filter_slots(), &scratch);
        for (uint32_t i = 0; i < survivors; ++i) {
          out.emplace_back();
          MaterializeProjection(RowView(scratch.block.row(scratch.sel[i]),
                                        schema),
                                projection_, &out.back());
        }
      }
      if (ra_ptr != nullptr) {
        ra_ptr->mu.lock();
        ra_ptr->pages_consumed += static_cast<int64_t>(end - begin);
        ra_ptr->mu.unlock();
        ra_ptr->cv.notify_all();
      }
      if (traced) {
        tc->AddSpan("scan", StrFormat("morsel %u", morsel), span_begin,
                    {{"worker", StrFormat("%d", w)},
                     {"pages", StrFormat("%u", end - begin)}});
      }
    }
    // Each worker folds its CPU tally into the context as it finishes;
    // MergeCpu latches, so workers may race each other here but never
    // corrupt the totals.
    ctx->MergeCpu(ws.cpu);
    ctx->MergeStall(ws.stall);
    return Status::OK();
  });
  // Retire the prefetcher before error propagation: a joinable thread must
  // never reach ra's end of scope.
  if (ra_thread.joinable()) {
    ra.mu.lock();
    ra.stop = true;
    ra.mu.unlock();
    ra.cv.notify_all();
    ra_thread.join();
  }
  DPCF_RETURN_IF_ERROR(status);

  // Fold the monitor bundles back into the operator's own. The workers
  // have joined: no concurrency here, and merge order is fixed (by worker
  // index) so feedback stays bit-for-bit deterministic.
  if (monitors_ != nullptr) {
    ScopedSpan merge_span(tc, "monitor", "monitor merge");
    for (int w = 1; w < num_workers; ++w) {
      DPCF_RETURN_IF_ERROR(
          monitors_->MergeFrom(*worker_bundles[static_cast<size_t>(w)]));
    }
    if (journal != nullptr) {
      journal->Record(JournalEvent::kMonitorMerge,
                      static_cast<uint64_t>(num_workers - 1));
    }
  }
  return Status::OK();
}

Result<bool> ParallelTableScanOp::NextImpl(ExecContext* ctx,
                                             Tuple* out) {
  (void)ctx;
  while (drain_morsel_ < morsel_out_.size()) {
    std::vector<Tuple>& bucket = morsel_out_[drain_morsel_];
    if (drain_row_ < bucket.size()) {
      *out = std::move(bucket[drain_row_]);
      ++drain_row_;
      return true;
    }
    // Free each bucket as soon as it is drained to bound peak memory.
    bucket.clear();
    bucket.shrink_to_fit();
    ++drain_morsel_;
    drain_row_ = 0;
  }
  return false;
}

Status ParallelTableScanOp::CloseImpl(ExecContext* ctx) {
  (void)ctx;
  morsel_out_.clear();
  drain_morsel_ = 0;
  drain_row_ = 0;
  return Status::OK();
}

std::string ParallelTableScanOp::Describe() const {
  std::string prefetch =
      options_.prefetch_pages > 0
          ? StrFormat(", prefetch=%u", options_.prefetch_pages)
          : std::string();
  return StrFormat("Parallel%s(%s, %s, threads=%d%s)",
                   table_->organization() == TableOrganization::kClustered
                       ? "ClusteredIndexScan"
                       : "TableScan",
                   table_->name().c_str(),
                   step_.pushed().ToString(table_->schema()).c_str(),
                   options_.num_threads, prefetch.c_str());
}

void ParallelTableScanOp::CollectOwnMonitorRecords(
    std::vector<MonitorRecord>* out) const {
  AppendScanMonitorRecords(*table_, monitors_.get(), out);
}

}  // namespace dpcf
