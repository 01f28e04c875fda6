// Volcano-style operator interface.
//
// Operators emit materialized Tuples of their projected columns. Storage-
// engine operators (scans, fetch) are the only ones that touch pages and
// PIDs; relational-engine operators compose them. All fallible paths return
// Status / Result.
//
// The public Open/Next/Close entry points are NON-virtual wrappers around
// the protected OpenImpl/NextImpl/CloseImpl hooks: when the context has
// profiling enabled they accumulate an OpProfile (wall time, rows, and the
// inclusive IoStats/CpuStats delta of the call — children run inside their
// parent's calls, so a node's delta covers its subtree), and when tracing
// is enabled Open/Close record spans named by Describe(). The span name is
// formatted only while the collector is enabled. With both off, Next is one
// predictable branch and Open/Close add one relaxed load — the
// observability layer's cost is near zero unless it is asked for.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/run_statistics.h"
#include "exec/exec_context.h"
#include "obs/op_profile.h"
#include "table/value.h"

namespace dpcf {

class JoinHashTable;  // exec/join_hash_table.h

class Operator {
 public:
  virtual ~Operator() = default;

  /// Opens the subtree. Resets this operator's profile when profiling.
  Status Open(ExecContext* ctx);

  /// Produces the next tuple into *out. Returns false at end of stream.
  Result<bool> Next(ExecContext* ctx, Tuple* out);

  Status Close(ExecContext* ctx);

  /// One-line description for plan rendering, e.g.
  /// "TableScan(T, C3<250000)".
  virtual std::string Describe() const = 0;

  /// Appends the subtree's page-count observations (valid after Close):
  /// children first (in children() order), then this operator's own — the
  /// order the feedback determinism tests pin down.
  void CollectMonitorRecords(std::vector<MonitorRecord>* out) const;

  /// This operator's OWN observations only; the profile-tree capture uses
  /// it to attribute records to the operator that measured them.
  virtual void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const {
    (void)out;
  }

  /// Child operators, for plan rendering.
  virtual std::vector<const Operator*> children() const { return {}; }

  /// A hash join hands its probe child the built key table before opening
  /// it (`key_idx`: the probe key's position in this operator's tuples),
  /// and null at Close. An operator that takes it (the serial heap scan)
  /// emits only rows whose key `keys` matches, charging one hash_table_ops
  /// per row it drops; the default takes nothing and emits every row.
  virtual void SetJoinKeyFilter(const JoinHashTable* keys, int key_idx) {
    (void)keys;
    (void)key_idx;
  }

  /// Profile of the most recent profiled execution (zeros otherwise).
  const OpProfile& profile() const { return profile_; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextImpl(ExecContext* ctx, Tuple* out) = 0;
  virtual Status CloseImpl(ExecContext* ctx) = 0;

 private:
  OpProfile profile_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Renders an operator tree, one operator per line, indented.
std::string DescribeTree(const Operator& root);

}  // namespace dpcf
