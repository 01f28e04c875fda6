// Join methods: Hash Join, Merge Join, Index Nested Loops Join.
//
// The DPC parameter relevant to a join is DPC(inner, join-pred) — the pages
// of the inner an INL join would fetch (paper Section IV). Each join method
// obtains it differently while executing:
//  * INL join: the inner fetches are an index-plan rid stream, so a linear
//    counter over fetched PIDs applies directly;
//  * Hash Join: the build phase materializes a BitvectorFilter over the
//    outer join keys and registers it in an ExecContext slot; the
//    probe-side *scan* then counts pages via the derived semi-join
//    predicate (Fig 5) — PIDs never cross into the relational engine.
//    Its key lookups go through the flat JoinHashTable
//    (exec/join_hash_table.h), the map the exact join oracle uses too;
//  * Merge Join: same bitvector idea, prebuilt when the outer child is a
//    blocking Sort, or grown incrementally ("partial bitvector") when both
//    inputs arrive clustered on the join column.

#pragma once

#include <memory>
#include <optional>
#include <span>

#include "core/pid_monitor.h"
#include "exec/index_ops.h"
#include "exec/join_hash_table.h"
#include "exec/operator.h"
#include "index/secondary_index.h"

namespace dpcf {

/// How a join publishes its bitvector filter for probe-side monitoring.
struct BitvectorSpec {
  int slot = -1;  // ExecContext slot pre-allocated at plan build time
  /// Exact while the join-key domain fits (paper Section IV).
  uint32_t numbits = 1 << 20;
};

/// In-memory hash join. Open drains the build side into one flat value
/// array and builds a JoinHashTable over its keys once, then hands the
/// table to the probe child (Operator::SetJoinKeyFilter) before opening
/// it: a heap scan there drops the rows no build key matches. Output
/// tuples are the probe tuple followed by the build tuple, in probe order
/// and then the build side's order within a key. Charges one
/// hash_table_ops per build row and per probe row, the probe child
/// charging the rows it drops.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr build, int build_key_idx, OperatorPtr probe,
             int probe_key_idx,
             std::optional<BitvectorSpec> filter_spec = std::nullopt);

  std::string Describe() const override;
  std::vector<const Operator*> children() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  OperatorPtr build_;
  int build_key_idx_;
  OperatorPtr probe_;
  int probe_key_idx_;
  std::optional<BitvectorSpec> filter_spec_;

  // Build row i is build_values_[i * build_arity_, (i + 1) * build_arity_).
  std::vector<Value> build_values_;
  size_t build_arity_ = 0;
  JoinHashTable table_;  // build key -> build row indexes
  Tuple probe_tuple_;
  std::span<const uint32_t> matches_;  // probe_tuple_'s build rows
  size_t match_pos_ = 0;
};

enum class MergeBitvectorMode {
  kNone,
  /// Outer child is blocking (Sort): drain it at Open, filter is complete
  /// before the inner produces its first row.
  kPrebuilt,
  /// Both inputs stream in join-key order: bits are added as outer rows
  /// are consumed; the partial filter is correct because Merge Join only
  /// advances the inner past keys the outer has already passed.
  kPartial,
};

/// Merge join over inputs sorted ascending on their join keys.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr outer, int outer_key_idx, OperatorPtr inner,
              int inner_key_idx,
              MergeBitvectorMode bv_mode = MergeBitvectorMode::kNone,
              std::optional<BitvectorSpec> filter_spec = std::nullopt);

  std::string Describe() const override;
  std::vector<const Operator*> children() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  /// Pulls the next outer tuple (from the prebuilt buffer or the child),
  /// adding its key to the partial filter when in kPartial mode.
  Result<bool> AdvanceOuter(ExecContext* ctx);
  Result<bool> AdvanceInner(ExecContext* ctx);

  OperatorPtr outer_;
  int outer_key_idx_;
  OperatorPtr inner_;
  int inner_key_idx_;
  MergeBitvectorMode bv_mode_;
  std::optional<BitvectorSpec> filter_spec_;

  std::vector<Tuple> outer_buf_;  // kPrebuilt only
  size_t outer_pos_ = 0;
  Tuple outer_tuple_;
  bool outer_valid_ = false;
  Tuple inner_tuple_;
  bool inner_valid_ = false;

  // The buffered equal-key run is the OUTER one: the outer side is always
  // advanced past a key group before the inner reads beyond it, so in
  // kPartial mode the bitvector already contains the next outer key when
  // the inner scan's monitor probes it (paper Section IV's partial-filter
  // correctness argument).
  std::vector<Tuple> outer_group_;
  int64_t group_key_ = 0;
  bool group_active_ = false;
  size_t group_pos_ = 0;
};

/// Index Nested Loops join: for each outer tuple, seek the inner index on
/// the join key and fetch matching rows. Output tuples are the outer tuple
/// followed by the projected inner columns. The fetch stream hosts linear
/// counters for DPC(inner, join-pred).
class IndexNestedLoopsJoinOp : public Operator {
 public:
  IndexNestedLoopsJoinOp(OperatorPtr outer, int outer_key_idx,
                         Table* inner_table, Index* inner_index,
                         Predicate inner_residual,
                         std::vector<int> inner_projection,
                         std::vector<FetchMonitorRequest> monitor_requests =
                             {});

  std::string Describe() const override;
  void CollectOwnMonitorRecords(
      std::vector<MonitorRecord>* out) const override;
  std::vector<const Operator*> children() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextImpl(ExecContext* ctx, Tuple* out) override;
  Status CloseImpl(ExecContext* ctx) override;

 private:
  OperatorPtr outer_;
  int outer_key_idx_;
  Table* inner_table_;
  Index* inner_index_;
  Predicate inner_residual_;
  std::vector<int> inner_projection_;
  std::vector<PidStreamMonitor> monitors_;

  Tuple outer_tuple_;
  bool outer_valid_ = false;
  int64_t current_key_ = 0;
  BtreeIterator inner_it_;
};

}  // namespace dpcf
