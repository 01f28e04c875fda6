// Flight-recorder overhead gate: the journal's claim is "always on, cheap
// enough for production". This bench measures it instead of asserting it.
//
// Two identical Databases run the same cold-cache morsel-parallel scans —
// one with observability.journal on (the default), one with it off — and
// the gate fails if the journal-on configuration is more than 5% slower.
// The scans read ahead on the disk's device channels, so the measured path
// includes every journaled storage site (prefetch scheduling as
// ring_submit, eviction, loading waits) rather than an idle journal.
// Timing is best-of-N to shave scheduler noise.
//
// Knobs: DPCF_BENCH_PAGES (default 2048; 1 KiB pages),
// DPCF_BENCH_READ_LAT_US (default 50), DPCF_BENCH_IO_THREADS (default 8
// device channels), DPCF_BENCH_PREFETCH (default 64), DPCF_BENCH_REPEAT (default 3). Emits
// BENCH_obs_overhead.json; the <5% gate is disabled for tiny CI-smoke
// parameterizations, which only validate the JSON shape.

#include <chrono>
#include <string>

#include "bench/bench_util.h"
#include "exec/executor.h"
#include "exec/parallel_scan.h"
#include "obs/event_journal.h"
#include "table/catalog.h"

using namespace dpcf;
using namespace dpcf::bench;

namespace {

constexpr size_t kBenchPageSize = 1024;

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-`repeat` cold scan time of `table` on `db`.
double BestColdScanMs(Database* db, Table* table, int repeat,
                      uint32_t prefetch, int64_t expect_rows,
                      const char* what) {
  double best = 0;
  for (int r = 0; r < repeat; ++r) {
    CheckOk(db->ColdCache(), "cold cache");
    ParallelScanOptions options{/*num_threads=*/4, /*morsel_pages=*/32,
                                prefetch, /*vectorized=*/true};
    ParallelTableScanOp scan(table, Predicate(), {kC1}, nullptr, options);
    ExecContext ctx(db->buffer_pool());
    ctx.set_metrics(db->metrics());
    ctx.set_journal(db->journal());
    auto t0 = std::chrono::steady_clock::now();
    RunResult result = CheckOk(ExecutePlan(&scan, &ctx), what);
    const double ms = MillisSince(t0);
    if (static_cast<int64_t>(result.output.size()) != expect_rows) {
      std::fprintf(stderr, "FATAL %s: scanned %zu rows, expected %lld\n",
                   what, result.output.size(),
                   static_cast<long long>(expect_rows));
      std::exit(1);
    }
    if (r == 0 || ms < best) best = ms;
  }
  CheckIoInvariant(*db->disk()->io_stats(), what,
                   /*expect_no_prefetch=*/false);
  return best;
}

}  // namespace

int main() {
  const PageNo pages =
      static_cast<PageNo>(EnvInt("DPCF_BENCH_PAGES", 2048));
  const int64_t latency_us = EnvInt("DPCF_BENCH_READ_LAT_US", 50);
  const int io_threads =
      static_cast<int>(EnvInt("DPCF_BENCH_IO_THREADS", 8));
  const uint32_t prefetch =
      static_cast<uint32_t>(EnvInt("DPCF_BENCH_PREFETCH", 64));
  const int repeat = static_cast<int>(EnvInt("DPCF_BENCH_REPEAT", 3));
  const int64_t rows = static_cast<int64_t>(pages) * 9;

  std::printf("== Flight-recorder journal overhead: on vs off ==\n");
  std::printf(
      "pages~%u page_size=%zu read_latency=%lldus io_threads=%d "
      "prefetch=%u best-of-%d\n\n",
      pages, kBenchPageSize, static_cast<long long>(latency_us),
      io_threads, prefetch, repeat);

  double ms_on = 0, ms_off = 0;
  uint32_t actual_pages = 0;
  int64_t journal_events = 0;
  for (const bool journal_on : {false, true}) {
    DatabaseOptions db_opts;
    db_opts.page_size = kBenchPageSize;
    db_opts.buffer_pool_pages = static_cast<size_t>(pages) / 2;
    db_opts.io_threads = io_threads;
    db_opts.observability.journal = journal_on;
    Database db(db_opts);
    SyntheticOptions opts;
    opts.num_rows = rows;
    opts.seed = 42;
    opts.build_indexes = false;
    Table* t =
        CheckOk(BuildSyntheticTable(&db, "T", opts), "build synthetic T");
    actual_pages = t->page_count();
    db.disk()->set_read_latency_us(latency_us);
    const double ms =
        BestColdScanMs(&db, t, repeat, prefetch, rows,
                       journal_on ? "journal-on" : "journal-off");
    if (journal_on) {
      ms_on = ms;
      journal_events =
          static_cast<int64_t>(db.journal()->Snapshot().size());
      if (journal_events == 0) {
        std::fprintf(stderr,
                     "FATAL: journal-on run recorded no events — the "
                     "overhead being measured is not there\n");
        return 1;
      }
    } else {
      ms_off = ms;
    }
  }

  const double overhead = ms_off > 0 ? (ms_on - ms_off) / ms_off : 0;
  TablePrinter table({"config", "cold_ms", "overhead"});
  table.AddRow({"journal-off", FormatDouble(ms_off, 2), "-"});
  table.AddRow({"journal-on", FormatDouble(ms_on, 2), Pct(overhead)});
  table.Print();

  const std::string json =
      "{\"bench\":\"obs_overhead\",\"pages\":" +
      std::to_string(actual_pages) + ",\"rows\":" + std::to_string(rows) +
      ",\"read_latency_us\":" + std::to_string(latency_us) +
      ",\"io_threads\":" + std::to_string(io_threads) +
      ",\"prefetch_window\":" + std::to_string(prefetch) +
      ",\"repeat\":" + std::to_string(repeat) +
      ",\"journal_off_ms\":" + FormatDouble(ms_off, 3) +
      ",\"journal_on_ms\":" + FormatDouble(ms_on, 3) +
      ",\"journal_events\":" + std::to_string(journal_events) +
      ",\"overhead\":" + FormatDouble(overhead, 4) + "}";
  std::printf("\nBENCH_obs_overhead.json %s\n", json.c_str());
  FILE* f = std::fopen("BENCH_obs_overhead.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }

  std::printf("SUMMARY obs_overhead: %s journal overhead on a cold "
              "async scan (gate <5%%)\n",
              Pct(overhead).c_str());
  // At smoke scale a scan finishes in microseconds and the ratio is pure
  // noise; the gate needs real work to divide by.
  if (actual_pages < 1024 || latency_us < 10) return 0;
  return overhead < 0.05 ? 0 : 1;
}
