// Per-operator execution profiles — the EXPLAIN ANALYZE layer (DESIGN.md
// section 11).
//
// When ExecContext::profiling() is on, the Operator base class wraps every
// Open/Next/Close call and accumulates wall time, row counts and the
// *inclusive* IoStats/CpuStats/StallStats deltas (children execute inside
// their parent's calls, so a node's delta covers its whole subtree —
// exclusive values fall out at render time by subtracting the children). After the
// run the executor captures the operator tree into an OpProfileNode tree,
// and RenderAnnotatedPlan pairs each node's own monitor records with the
// optimizer estimates the feedback driver attached, giving estimated vs
// actual cardinality/DPC per operator.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_statistics.h"
#include "storage/io_stats.h"

namespace dpcf {

/// Counts and inclusive-of-children deltas for one operator in one run.
struct OpProfile {
  int64_t open_calls = 0;
  int64_t next_calls = 0;
  int64_t close_calls = 0;
  /// Tuples this operator emitted (Next() returning true).
  int64_t rows = 0;
  double open_wall_ms = 0;
  double next_wall_ms = 0;
  double close_wall_ms = 0;
  IoStats io;    // inclusive delta across open + drain + close
  CpuStats cpu;  // inclusive delta (driver + merged workers)
  /// Inclusive delta of the buffer pool's wait counters (I/O waits vs
  /// waits behind another thread's or readahead's read), taken like io.
  StallStats stall;

  double wall_ms() const {
    return open_wall_ms + next_wall_ms + close_wall_ms;
  }
};

/// Value-type snapshot of one operator after execution: its description,
/// profile, *own* monitor records (children carry their own), and children.
struct OpProfileNode {
  std::string describe;
  OpProfile profile;
  std::vector<MonitorRecord> records;
  std::vector<OpProfileNode> children;
};

/// Renders the profile tree as an annotated plan: one operator per line
/// with rows / wall / simulated time / I/O, followed by one line per
/// monitored expression showing actual vs estimated cardinality and DPC.
/// `estimated` supplies records with optimizer estimates attached (as
/// produced by FeedbackDriver::AttachEstimates); they are matched to the
/// node's own records by (label, mechanism). Records already carrying
/// estimates render those directly.
std::string RenderAnnotatedPlan(const OpProfileNode& root,
                                const std::vector<MonitorRecord>& estimated,
                                const SimCostParams& params = SimCostParams());

}  // namespace dpcf
