#include "exec/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"
#include "obs/event_journal.h"
#include "obs/trace_collector.h"

namespace dpcf {

namespace {

/// Readahead paced by the scan's own workers: the pages submitted to
/// BufferPool::PrefetchBatch reach `window` pages past the pages the
/// workers have finished (not merely claimed), so the window stays ahead
/// of what the scan has consumed.
struct ReadaheadPacer {
  BufferPool* pool;
  SegmentId segment;
  int64_t total_pages;
  int64_t window;  // 0: readahead off
  std::atomic<int64_t> finished{0};

  /// Adds `pages` to the finished count and submits, as one batch, the
  /// pages by which that add moved the frontier (finished + window): each
  /// add owns its own slice, so no page is submitted twice. Advance(0),
  /// called once before any worker starts, primes [0, window), so the
  /// prefetch/demand split of the first pages does not depend on how
  /// quickly the first worker gets going.
  void Advance(int64_t pages) {
    if (window <= 0) return;
    const int64_t before = finished.fetch_add(pages);
    const int64_t from =
        pages == 0 ? 0 : std::min(before + window, total_pages);
    const int64_t to = std::min(before + pages + window, total_pages);
    if (from >= to) return;
    std::vector<PageId> batch;
    batch.reserve(static_cast<size_t>(to - from));
    for (int64_t p = from; p < to; ++p) {
      batch.push_back(PageId{segment, static_cast<PageNo>(p)});
    }
    pool->PrefetchBatch(batch);
  }
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
  drain_morsel_ = 0;
  drain_row_ = 0;

  // Everything a worker produces comes back through the join: each worker
  // writes its slot once, as it ends, and the scan reads the slots after
  // joining every worker, so the workers share no latch. Worker 0 scans
  // into the operator's own bundle, so the serial (1-thread) path involves
  // no copy at all; the others get thread-local clones.
  struct WorkerSlot {
    Status status;
    CpuStats cpu;
    std::unique_ptr<ScanMonitorBundle> bundle;  // workers >= 1
  };
  std::vector<WorkerSlot> slots(static_cast<size_t>(num_workers));
  if (monitors_ != nullptr) {
    for (int w = 1; w < num_workers; ++w) {
      slots[static_cast<size_t>(w)].bundle = monitors_->Clone();
    }
  }

  TraceCollector* const tc = ctx->trace();
  EventJournal* const journal = ctx->journal();
  if (journal != nullptr && monitors_ != nullptr) {
    journal->Record(JournalEvent::kMonitorBuild,
                    static_cast<uint64_t>(num_workers));
  }

  // Readahead overlaps (simulated) I/O with predicate evaluation and
  // monitor updates. The window is clamped to half the pool so prefetch
  // pressure can never evict pages the scan is still consuming.
  const int64_t half_pool = static_cast<int64_t>(ctx->pool()->capacity() / 2);
  ReadaheadPacer readahead{
      ctx->pool(), file->segment(), static_cast<int64_t>(file->page_count()),
      std::min(static_cast<int64_t>(options_.prefetch_pages), half_pool)};
  readahead.Advance(0);

  std::atomic<bool> stop{false};
  auto scan_morsels = [&](int w, CpuStats* cpu) -> Status {
    // Query-id tagging is thread-local; each worker re-opens the scope so
    // its morsel spans (and any buffer-pool miss spans beneath them) carry
    // the same qid as the driver's.
    TraceCollector::QueryIdScope qid_scope(ctx->query_id());
    ScanMonitorBundle* bundle =
        monitors_ == nullptr
            ? nullptr
            : (w == 0 ? monitors_.get()
                      : slots[static_cast<size_t>(w)].bundle.get());
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
      readahead.Advance(static_cast<int64_t>(end - begin));
      if (traced) {
        tc->AddSpan("scan", StrFormat("morsel %u", morsel), span_begin,
                    {{"worker", StrFormat("%d", w)},
                     {"pages", StrFormat("%u", end - begin)}});
      }
    }
    return Status::OK();
  };
  auto work = [&](int w) {
    // The tally lives on this worker's stack until it ends, so nothing on
    // the per-row path shares a cache line with another worker.
    CpuStats cpu;
    WorkerSlot& slot = slots[static_cast<size_t>(w)];
    slot.status = scan_morsels(w, &cpu);
    slot.cpu = cpu;
  };
  if (num_workers == 1) {
    work(0);  // the serial path starts no thread
  } else {
    // A jthread joins as it is destroyed, so every worker has ended when
    // this block does, on every path out of it.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) threads.emplace_back(work, w);
  }

  for (const WorkerSlot& slot : slots) *ctx->cpu() += slot.cpu;
  for (const WorkerSlot& slot : slots) DPCF_RETURN_IF_ERROR(slot.status);

  // Fold the monitor bundles back into the operator's own, in worker
  // order, so feedback stays bit-for-bit deterministic.
  if (monitors_ != nullptr) {
    ScopedSpan merge_span(tc, "monitor", "monitor merge");
    for (int w = 1; w < num_workers; ++w) {
      DPCF_RETURN_IF_ERROR(
          monitors_->MergeFrom(*slots[static_cast<size_t>(w)].bundle));
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
