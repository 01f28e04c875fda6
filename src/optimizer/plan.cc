#include "optimizer/plan.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/rel_ops.h"

namespace dpcf {

const char* AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kTableScan:
      return "TableScan";
    case AccessKind::kClusteredRange:
      return "ClusteredRange";
    case AccessKind::kIndexSeek:
      return "IndexSeek";
    case AccessKind::kIndexIntersection:
      return "IndexIntersection";
    case AccessKind::kCoveringScan:
      return "CoveringScan";
  }
  return "?";
}

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kHashJoin:
      return "HashJoin";
    case JoinMethod::kMergeJoin:
      return "MergeJoin";
    case JoinMethod::kIndexNestedLoops:
      return "IndexNestedLoopsJoin";
  }
  return "?";
}

std::string AccessPathPlan::Describe() const {
  std::string s = StrFormat("%s(%s", AccessKindName(kind),
                            table->name().c_str());
  for (const IndexRange& r : ranges) {
    s += StrFormat(", %s[%s..%s]", r.index->name().c_str(),
                   r.lo.ToString().c_str(), r.hi.ToString().c_str());
  }
  s += StrFormat(") rows=%s dpc=%s(%s) cost=%s",
                 FormatDouble(est_rows, 1).c_str(),
                 FormatDouble(est_dpc, 1).c_str(), dpc_source.c_str(),
                 FormatDouble(est_cost, 2).c_str());
  return s;
}

std::string AccessPathPlan::Signature() const {
  std::string s = std::string(AccessKindName(kind)) + "(" + table->name();
  for (const IndexRange& r : ranges) s += "," + r.index->name();
  return s + ")";
}

std::string JoinPlan::Signature() const {
  std::string s = std::string(JoinMethodName(method)) + "[" +
                  outer_path.Signature();
  if (method == JoinMethod::kIndexNestedLoops) {
    s += ",via=" + inl_index->name();
  } else {
    s += ",";
    s += inner_path.Signature();
    if (sort_outer) s += ",sortO";
    if (sort_inner) s += ",sortI";
  }
  return s + "]";
}

std::string JoinPlan::Describe() const {
  std::string s = StrFormat("%s[outer=%s", JoinMethodName(method),
                            outer_path.Describe().c_str());
  if (method == JoinMethod::kIndexNestedLoops) {
    s += StrFormat(", inner via %s", inl_index->name().c_str());
  } else {
    s += StrFormat(", inner=%s", inner_path.Describe().c_str());
  }
  s += StrFormat("] joinRows=%s innerDpc=%s(%s) cost=%s",
                 FormatDouble(est_join_rows, 1).c_str(),
                 FormatDouble(est_inner_dpc, 1).c_str(), dpc_source.c_str(),
                 FormatDouble(est_cost, 2).c_str());
  return s;
}

std::optional<ColumnRange> ExtractColumnRange(const Predicate& pred,
                                              int col) {
  ColumnRange range;
  bool any = false;
  for (const PredicateAtom& a : pred.atoms()) {
    if (a.col() != col || a.is_string()) continue;
    int64_t v = a.int_operand();
    switch (a.op()) {
      case CmpOp::kEq:
        range.lo = std::max(range.lo, v);
        range.hi = std::min(range.hi, v);
        break;
      case CmpOp::kLt:
        if (v == INT64_MIN) return std::nullopt;
        range.hi = std::min(range.hi, v - 1);
        break;
      case CmpOp::kLe:
        range.hi = std::min(range.hi, v);
        break;
      case CmpOp::kGt:
        if (v == INT64_MAX) return std::nullopt;
        range.lo = std::max(range.lo, v + 1);
        break;
      case CmpOp::kGe:
        range.lo = std::max(range.lo, v);
        break;
      case CmpOp::kNe:
        continue;  // not sargable as a range
    }
    range.atoms.Add(a);
    any = true;
  }
  if (!any) return std::nullopt;
  return range;
}

std::optional<IndexRange> BuildIndexRange(const Predicate& pred,
                                          Index* index) {
  const std::vector<int>& cols = index->key_cols();
  auto leading = ExtractColumnRange(pred, cols[0]);
  if (!leading.has_value()) return std::nullopt;
  IndexRange range;
  range.index = index;
  range.sargable = leading->atoms;
  if (cols.size() > 1 && leading->lo == leading->hi) {
    // Equality on the leading column: the second key column can narrow the
    // composite range further.
    if (auto second = ExtractColumnRange(pred, cols[1])) {
      range.lo = BtreeKey{leading->lo, second->lo};
      range.hi = BtreeKey{leading->hi, second->hi};
      for (const PredicateAtom& a : second->atoms.atoms()) {
        range.sargable.Add(a);
      }
      return range;
    }
  }
  range.lo = BtreeKey::Min(leading->lo);
  range.hi = BtreeKey::Max(leading->hi);
  return range;
}

Predicate RemoveAtoms(const Predicate& pred, const Predicate& used) {
  Predicate out;
  for (const PredicateAtom& a : pred.atoms()) {
    bool is_used = std::any_of(
        used.atoms().begin(), used.atoms().end(),
        [&a](const PredicateAtom& u) { return u.SameAs(a); });
    if (!is_used) out.Add(a);
  }
  return out;
}

bool PathEmitsSortedBy(const AccessPathPlan& path, int col) {
  if (path.table->organization() != TableOrganization::kClustered ||
      path.table->cluster_key_col() != col) {
    return false;
  }
  return path.kind == AccessKind::kTableScan ||
         path.kind == AccessKind::kClusteredRange;
}

namespace {

std::unique_ptr<ScanMonitorBundle> MakeBundle(
    const Predicate& pushed, const Schema* schema,
    const std::vector<ScanExprRequest>& requests, double fraction,
    uint64_t seed, Status* status) {
  *status = Status::OK();
  if (requests.empty()) return nullptr;
  auto bundle =
      std::make_unique<ScanMonitorBundle>(pushed, schema, fraction, seed);
  for (const ScanExprRequest& req : requests) {
    Status st = bundle->AddRequest(req);
    if (!st.ok()) {
      *status = st;
      return nullptr;
    }
  }
  return bundle;
}

}  // namespace

Result<OperatorPtr> BuildAccessPathOp(
    const AccessPathPlan& path, const std::vector<int>& projection,
    const std::vector<ScanExprRequest>& scan_requests,
    const std::vector<FetchMonitorRequest>& fetch_requests,
    double sample_fraction, uint64_t seed,
    const ParallelScanOptions& parallel) {
  Status st;
  switch (path.kind) {
    case AccessKind::kTableScan:
    case AccessKind::kClusteredRange: {
      auto bundle = MakeBundle(path.full_pred, &path.table->schema(),
                               scan_requests, sample_fraction, seed, &st);
      DPCF_RETURN_IF_ERROR(st);
      std::optional<ClusteredRange> range;
      if (path.kind == AccessKind::kClusteredRange) {
        range = ClusteredRange{path.ranges[0].index, path.cluster_lo,
                               path.cluster_hi};
      } else if (parallel.num_threads > 1) {
        return OperatorPtr(std::make_unique<ParallelTableScanOp>(
            path.table, path.full_pred, projection, std::move(bundle),
            parallel));
      }
      return OperatorPtr(std::make_unique<TableScanOp>(
          path.table, path.full_pred, projection, std::move(bundle),
          parallel.vectorized, range));
    }
    case AccessKind::kIndexSeek: {
      const IndexRange& r = path.ranges[0];
      auto source =
          std::make_unique<IndexSeekSource>(r.index, r.lo, r.hi);
      return OperatorPtr(std::make_unique<FetchOp>(path.table, std::move(source),
                                     path.residual, projection,
                                     fetch_requests));
    }
    case AccessKind::kIndexIntersection: {
      std::vector<std::unique_ptr<IndexSeekSource>> seeks;
      for (const IndexRange& r : path.ranges) {
        seeks.push_back(
            std::make_unique<IndexSeekSource>(r.index, r.lo, r.hi));
      }
      auto source =
          std::make_unique<IndexIntersectionSource>(std::move(seeks));
      return OperatorPtr(std::make_unique<FetchOp>(path.table, std::move(source),
                                     path.residual, projection,
                                     fetch_requests));
    }
    case AccessKind::kCoveringScan: {
      return OperatorPtr(std::make_unique<CoveringIndexScanOp>(
          path.ranges[0].index, path.full_pred, projection));
    }
  }
  return Status::Internal("unknown access kind");
}

Result<OperatorPtr> BuildSingleTableExec(const AccessPathPlan& path,
                                         const SingleTableQuery& query,
                                         const PlanMonitorHooks& hooks) {
  std::vector<int> projection =
      query.count_star ? std::vector<int>{} : query.projection;
  DPCF_ASSIGN_OR_RETURN(
      OperatorPtr op,
      BuildAccessPathOp(path, projection, hooks.outer_scan_requests,
                        hooks.fetch_requests, hooks.scan_sample_fraction,
                        hooks.seed,
                        ParallelScanOptions{
                            .num_threads = hooks.scan_threads,
                            .prefetch_pages = hooks.prefetch_pages,
                            .vectorized = hooks.vectorized_scan}));
  if (query.count_star) {
    op = OperatorPtr(std::make_unique<AggregateCountOp>(std::move(op)));
  }
  return op;
}

Result<OperatorPtr> BuildJoinExec(const JoinPlan& plan,
                                  const JoinQuery& query,
                                  const PlanMonitorHooks& hooks) {
  // Children project exactly the join column (position 0) — the queries in
  // the evaluation are COUNT aggregates.
  const std::vector<int> outer_proj{query.outer_col};
  const std::vector<int> inner_proj{query.inner_col};

  // Join children stay serial (num_threads 1; see PlanMonitorHooks), but
  // the vectorized toggle still applies to their scans.
  ParallelScanOptions child_scan;
  child_scan.vectorized = hooks.vectorized_scan;

  DPCF_ASSIGN_OR_RETURN(
      OperatorPtr outer_op,
      BuildAccessPathOp(plan.outer_path, outer_proj,
                        hooks.outer_scan_requests, {},
                        hooks.scan_sample_fraction, hooks.seed,
                        child_scan));

  OperatorPtr root;
  switch (plan.method) {
    case JoinMethod::kIndexNestedLoops: {
      root = OperatorPtr(std::make_unique<IndexNestedLoopsJoinOp>(
          std::move(outer_op), 0, query.inner_table, plan.inl_index,
          query.inner_pred, std::vector<int>{}, hooks.fetch_requests));
      break;
    }
    case JoinMethod::kHashJoin: {
      DPCF_ASSIGN_OR_RETURN(
          OperatorPtr inner_op,
          BuildAccessPathOp(plan.inner_path, inner_proj,
                            hooks.inner_scan_requests, {},
                            hooks.inner_scan_sample_fraction,
                            hooks.seed + 1, child_scan));
      root = OperatorPtr(std::make_unique<HashJoinOp>(std::move(outer_op), 0,
                                        std::move(inner_op), 0,
                                        hooks.bitvector));
      break;
    }
    case JoinMethod::kMergeJoin: {
      DPCF_ASSIGN_OR_RETURN(
          OperatorPtr inner_op,
          BuildAccessPathOp(plan.inner_path, inner_proj,
                            hooks.inner_scan_requests, {},
                            hooks.inner_scan_sample_fraction,
                            hooks.seed + 1, child_scan));
      if (plan.sort_inner) {
        inner_op = OperatorPtr(std::make_unique<SortOp>(std::move(inner_op), 0));
      }
      if (plan.sort_outer) {
        outer_op = OperatorPtr(std::make_unique<SortOp>(std::move(outer_op), 0));
      }
      MergeBitvectorMode mode = MergeBitvectorMode::kNone;
      if (hooks.bitvector.has_value()) {
        // Prebuilt when the outer blocks (Sort); partial when both stream
        // in key order. A sorted *inner* drains its scan before the outer
        // produces bits, so bitvector monitoring is unavailable there.
        if (plan.sort_outer) {
          mode = MergeBitvectorMode::kPrebuilt;
        } else if (!plan.sort_inner) {
          mode = MergeBitvectorMode::kPartial;
        }
      }
      root = OperatorPtr(std::make_unique<MergeJoinOp>(
          std::move(outer_op), 0, std::move(inner_op), 0, mode,
          mode == MergeBitvectorMode::kNone
              ? std::nullopt
              : hooks.bitvector));
      break;
    }
  }
  if (query.count_star) {
    root = OperatorPtr(std::make_unique<AggregateCountOp>(std::move(root)));
  }
  return root;
}

}  // namespace dpcf
