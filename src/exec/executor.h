// Plan driver: runs an operator tree to completion and gathers the
// statistics-xml-style run report. Also home of the morsel work queue the
// parallel scan's workers claim their pages from.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/run_statistics.h"
#include "exec/operator.h"
#include "storage/page.h"

namespace dpcf {

/// Morsel dispatch over a contiguous page range: the range [0, total_pages)
/// is cut into fixed-size morsels handed out from an atomic cursor, so
/// workers self-schedule and a slow worker never stalls the others (the
/// morsel-driven scheme of Leis et al., scoped to one scan).
class MorselQueue {
 public:
  MorselQueue(PageNo total_pages, uint32_t morsel_pages)
      : total_pages_(total_pages),
        morsel_pages_(std::max<uint32_t>(1, morsel_pages)),
        num_morsels_((total_pages + morsel_pages_ - 1) / morsel_pages_) {}

  /// Claims the next morsel: its index and half-open page interval.
  /// Returns false once the range is exhausted.
  bool Next(uint32_t* morsel, PageNo* begin, PageNo* end) {
    uint32_t m = next_.fetch_add(1, std::memory_order_relaxed);
    if (m >= num_morsels_) return false;
    *morsel = m;
    *begin = static_cast<PageNo>(m) * morsel_pages_;
    *end = std::min<PageNo>(total_pages_, *begin + morsel_pages_);
    return true;
  }

  uint32_t num_morsels() const { return num_morsels_; }
  uint32_t morsel_pages() const { return morsel_pages_; }

 private:
  PageNo total_pages_;
  uint32_t morsel_pages_;
  uint32_t num_morsels_;
  std::atomic<uint32_t> next_{0};
};

/// Output of one full execution.
struct RunResult {
  std::vector<Tuple> output;
  RunStatistics stats;
};

/// Drives `root` open → drain → close. I/O is reported as the delta of the
/// disk manager's counters across the run; simulated time uses `params`.
/// The caller decides cache state (Database::ColdCache() beforehand for the
/// paper's cold-cache runs). With ctx->profiling() on, the returned stats
/// carry a CaptureProfileTree snapshot in stats.profile.
Result<RunResult> ExecutePlan(Operator* root, ExecContext* ctx,
                              const SimCostParams& params = SimCostParams());

/// Snapshots the per-operator profiles and own monitor records of a plan
/// tree (valid after Close) into an OpProfileNode tree for EXPLAIN ANALYZE
/// rendering (obs/op_profile.h).
OpProfileNode CaptureProfileTree(const Operator& root);

/// Renders an operator tree one line per operator, children indented.
std::string DescribeTree(const Operator& root);

}  // namespace dpcf
