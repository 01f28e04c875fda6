// Shared helpers for the figure-reproduction benchmark binaries.
//
// Scale knobs (environment variables):
//   DPCF_ROWS         synthetic table rows           (default 400000)
//   DPCF_SCALE        real-world dataset scale       (default 1.0)
//   DPCF_TPCH_ROWS    tpch-like lineitem rows        (default 240000)
//   DPCF_SCAN_THREADS morsel workers for monitored scans (default 1)
//   DPCF_PREFETCH     readahead window in pages      (default 0 = off)
//   DPCF_OBS_DIR      when set, benches that support it enable tracing and
//                     dump metrics.prom / trace.json / journal.json /
//                     explain.txt there (validated by
//                     tools/check_observability.py)
// Each binary prints the series of one paper table/figure as an aligned
// text table plus a one-line SUMMARY, so `for b in build/bench/*; do $b;
// done` regenerates the whole evaluation.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/feedback_driver.h"
#include "sql/binder.h"
#include "storage/io_stats.h"
#include "workload/query_gen.h"
#include "workload/realworld.h"
#include "workload/synthetic.h"
#include "workload/tpch_like.h"

namespace dpcf::bench {

inline int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::atoll(v);
}

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::atof(v);
}

inline int64_t SyntheticRows() { return EnvInt("DPCF_ROWS", 400'000); }
inline double RealWorldScale() { return EnvDouble("DPCF_SCALE", 1.0); }
inline int64_t TpchRows() { return EnvInt("DPCF_TPCH_ROWS", 240'000); }
inline int ScanThreads() {
  return static_cast<int>(EnvInt("DPCF_SCAN_THREADS", 1));
}
inline uint32_t PrefetchPages() {
  return static_cast<uint32_t>(EnvInt("DPCF_PREFETCH", 0));
}
/// Observability dump directory; nullptr when DPCF_OBS_DIR is unset.
inline const char* ObsDir() { return std::getenv("DPCF_OBS_DIR"); }

/// Dies on error — benches have no meaningful recovery.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Exact I/O-accounting invariant for figure benches: every logical read
/// was a hit or exactly one physical read, and no prefetched load was
/// demanded more often than it was issued (prefetch_hits <= prefetch_reads
/// at every quiescent point). With `expect_no_prefetch` (the default —
/// serial figure runs never issue readahead) any prefetch charge at all is
/// fatal. Dies on violation, so a figure can never be produced from
/// counters the sharded pool silently perturbed relative to the
/// pre-sharding (monolithic) values.
inline void CheckIoInvariant(const IoStats& io, const char* what,
                             bool expect_no_prefetch = true) {
  const bool balanced =
      static_cast<int64_t>(io.logical_reads) ==
      static_cast<int64_t>(io.buffer_hits) + io.physical_reads();
  const bool prefetch_ok =
      static_cast<int64_t>(io.prefetch_hits) <=
          static_cast<int64_t>(io.prefetch_reads) &&
      (!expect_no_prefetch ||
       static_cast<int64_t>(io.prefetch_reads) == 0);
  if (!balanced || !prefetch_ok) {
    std::fprintf(stderr, "FATAL %s: inconsistent IoStats %s\n", what,
                 io.ToString().c_str());
    std::exit(1);
  }
}

/// The synthetic pair: T (all indexes) and T1 (independent permutations,
/// clustered-key index only), as the paper's join experiments require.
struct SyntheticPair {
  std::unique_ptr<Database> db;
  Table* t = nullptr;
  Table* t1 = nullptr;
  StatisticsCatalog stats;
};

inline SyntheticPair BuildSyntheticPair(bool with_t1) {
  SyntheticPair out;
  DatabaseOptions db_opts;
  db_opts.buffer_pool_pages = 4096;
  out.db = std::make_unique<Database>(db_opts);
  // An observability dump was requested: record trace events from the
  // start so the dump covers the whole bench, not just the final query.
  out.db->trace()->set_enabled(ObsDir() != nullptr);
  SyntheticOptions opts;
  opts.num_rows = SyntheticRows();
  opts.seed = 42;
  out.t = CheckOk(BuildSyntheticTable(out.db.get(), "T", opts),
                  "build synthetic T");
  CheckOk(out.stats.BuildAll(out.db->disk(), *out.t), "stats T");
  if (with_t1) {
    SyntheticOptions o1 = opts;
    o1.seed = 4242;  // independent permutations (see DESIGN.md)
    o1.build_indexes = false;
    out.t1 = CheckOk(BuildSyntheticTable(out.db.get(), "T1", o1),
                     "build synthetic T1");
    CheckOk(out.db->CreateIndex("T1_c1", "T1", std::vector<int>{kC1}, true)
                .status(),
            "T1 clustered index");
    CheckOk(out.stats.BuildAll(out.db->disk(), *out.t1), "stats T1");
  }
  return out;
}

/// Writes `text` to `dir`/`file`, dying on I/O failure (like CheckOk: the
/// dump is the point of an observability run, so a half-written one must
/// not look like success).
inline void WriteFileOrDie(const std::string& dir, const char* file,
                           const std::string& text) {
  const std::string path = dir + "/" + file;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

/// When DPCF_OBS_DIR is set, dumps the Database's observability state
/// there: metrics.prom (Prometheus text), trace.json
/// (chrome://tracing / Perfetto), journal.json (flight-recorder events),
/// and explain.txt (`annotated_plan` plus `error_report`, typically
/// FeedbackOutcome::annotated_plan and the driver's
/// EstimationErrorTracker Report()). The directory must already exist.
/// No-op when the variable is unset.
inline void MaybeDumpObservability(Database* db,
                                   const std::string& annotated_plan,
                                   const std::string& error_report) {
  const char* dir = ObsDir();
  if (dir == nullptr) return;
  WriteFileOrDie(dir, "metrics.prom", db->metrics()->PrometheusText());
  WriteFileOrDie(dir, "trace.json", db->trace()->ToJson());
  WriteFileOrDie(dir, "journal.json",
                 db->journal() != nullptr
                     ? db->journal()->ToJson()
                     : std::string("{\"capacity\": 0, \"threads\": 0, "
                                   "\"dropped_overwritten\": 0, "
                                   "\"events\": []}\n"));
  WriteFileOrDie(dir, "explain.txt",
                 annotated_plan + "\n" + error_report);
  std::printf("observability dump written to %s\n", dir);
}

/// Aligned text-table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::string line;
      for (size_t c = 0; c < row.size(); ++c) {
        line += row[c];
        line.append(width[c] - row[c].size() + 2, ' ');
      }
      std::printf("%s\n", line.c_str());
    };
    print_row(headers_);
    size_t total = 2 * headers_.size();
    for (size_t w : width) total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Pct(double fraction) {
  return FormatDouble(fraction * 100.0, 2) + "%";
}

inline const char* ColumnName(const Table& t, int col) {
  return t.schema().column(static_cast<size_t>(col)).name.c_str();
}

/// Short plan label for figure rows ("TableScan", "IndexSeek(T_c3)", ...).
/// Access-path Describe() strings look like "Kind(table, index[lo..hi])
/// ..."; the second comma token is the index name.
inline std::string ShortPlan(const std::string& describe) {
  size_t cut = describe.find_first_of("([");
  if (cut == std::string::npos) return describe;
  std::string kind = describe.substr(0, cut);
  if (kind == "IndexSeek" || kind == "IndexNestedLoopsJoin") {
    size_t comma = describe.find(", ", cut);
    size_t ix = comma == std::string::npos
                    ? describe.find(" via ", cut)
                    : comma + 2;
    if (comma == std::string::npos && ix != std::string::npos) ix += 5;
    if (ix != std::string::npos) {
      size_t end = describe.find_first_of("[,) ", ix);
      if (end != std::string::npos && end > ix) {
        return kind + "(" + describe.substr(ix, end - ix) + ")";
      }
    }
  }
  return kind;
}

}  // namespace dpcf::bench
