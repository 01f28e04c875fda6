#include "sql/binder.h"

#include "common/string_util.h"

namespace dpcf {

namespace {

struct ResolvedColumn {
  Table* table = nullptr;
  int col = -1;
};

Result<ResolvedColumn> ResolveColumn(const std::string& qualifier,
                                     const std::string& column,
                                     Table* t0, Table* t1) {
  std::vector<Table*> candidates;
  if (!qualifier.empty()) {
    if (t0 != nullptr && t0->name() == qualifier) candidates.push_back(t0);
    if (t1 != nullptr && t1->name() == qualifier) candidates.push_back(t1);
    if (candidates.empty()) {
      return Status::NotFound("table qualifier " + qualifier);
    }
  } else {
    if (t0 != nullptr) candidates.push_back(t0);
    if (t1 != nullptr) candidates.push_back(t1);
  }
  ResolvedColumn out;
  for (Table* t : candidates) {
    int c = t->schema().ColumnIndex(column);
    if (c < 0) continue;
    if (out.table != nullptr) {
      return Status::InvalidArgument(
          StrFormat("column %s is ambiguous", column.c_str()));
    }
    out.table = t;
    out.col = c;
  }
  if (out.table == nullptr) {
    return Status::NotFound("column " + column);
  }
  return out;
}

Result<PredicateAtom> BindAtom(const SqlAtom& atom,
                               const ResolvedColumn& rc) {
  const Column& col = rc.table->schema().column(static_cast<size_t>(rc.col));
  if (atom.is_string) {
    if (col.type != ValueType::kString) {
      return Status::InvalidArgument(
          StrFormat("string literal compared to INT64 column %s",
                    atom.column.c_str()));
    }
    if (atom.sval.size() > col.size) {
      return Status::InvalidArgument(
          StrFormat("literal longer than CHAR(%u) column %s", col.size,
                    atom.column.c_str()));
    }
    return PredicateAtom::String(rc.col, atom.op, atom.sval, col.size);
  }
  if (col.type != ValueType::kInt64) {
    return Status::InvalidArgument(
        StrFormat("integer literal compared to CHAR column %s",
                  atom.column.c_str()));
  }
  return PredicateAtom::Int64(rc.col, atom.op, atom.ival);
}

}  // namespace

Result<BoundQuery> BindQuery(const Database& db, const ParsedQuery& parsed) {
  Table* t0 = db.GetTable(parsed.table0);
  if (t0 == nullptr) return Status::NotFound("table " + parsed.table0);
  Table* t1 = nullptr;
  if (parsed.has_join) {
    t1 = db.GetTable(parsed.table1);
    if (t1 == nullptr) return Status::NotFound("table " + parsed.table1);
  }

  // Partition WHERE atoms by table.
  Predicate pred0, pred1;
  for (const SqlAtom& atom : parsed.where) {
    DPCF_ASSIGN_OR_RETURN(ResolvedColumn rc,
                          ResolveColumn(atom.table, atom.column, t0, t1));
    DPCF_ASSIGN_OR_RETURN(PredicateAtom bound, BindAtom(atom, rc));
    (rc.table == t0 ? pred0 : pred1).Add(std::move(bound));
  }

  // Resolve COUNT(col) to the referenced column, if any.
  ResolvedColumn count_ref;
  if (parsed.count && parsed.count_arg != "*") {
    DPCF_ASSIGN_OR_RETURN(
        count_ref,
        ResolveColumn(parsed.count_arg_table, parsed.count_arg, t0, t1));
  }

  BoundQuery out;
  if (!parsed.has_join) {
    out.is_join = false;
    out.single.table = t0;
    out.single.pred = std::move(pred0);
    out.single.count_star = parsed.count;
    out.single.count_col = count_ref.col;
    if (!parsed.count) {
      for (const SqlColumnRef& ref : parsed.select_cols) {
        DPCF_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(ref.table, ref.column, t0,
                                            nullptr));
        out.single.projection.push_back(rc.col);
      }
    }
    return out;
  }

  DPCF_ASSIGN_OR_RETURN(
      ResolvedColumn left,
      ResolveColumn(parsed.join_left.table, parsed.join_left.column, t0,
                    t1));
  DPCF_ASSIGN_OR_RETURN(
      ResolvedColumn right,
      ResolveColumn(parsed.join_right.table, parsed.join_right.column, t0,
                    t1));
  if (left.table == right.table) {
    return Status::NotSupported("join condition must reference both tables");
  }
  // Every join operator, the join oracle and the bitvector monitor key on
  // int64 values.
  for (const ResolvedColumn* rc : {&left, &right}) {
    const Column& col =
        rc->table->schema().column(static_cast<size_t>(rc->col));
    if (col.type != ValueType::kInt64) {
      return Status::NotSupported(
          StrFormat("join column %s.%s is %s; joins need INT64 keys",
                    rc->table->name().c_str(), col.name.c_str(),
                    ValueTypeName(col.type)));
    }
  }
  if (!parsed.count) {
    return Status::NotSupported("join queries must be COUNT aggregates");
  }
  out.is_join = true;
  JoinQuery& jq = out.join;
  jq.outer_table = t0;
  jq.outer_pred = std::move(pred0);
  jq.inner_table = t1;
  jq.inner_pred = std::move(pred1);
  jq.outer_col = left.table == t0 ? left.col : right.col;
  jq.inner_col = left.table == t1 ? left.col : right.col;
  jq.count_star = true;
  if (count_ref.table == t0) jq.outer_count_col = count_ref.col;
  if (count_ref.table == t1) jq.inner_count_col = count_ref.col;
  return out;
}

Result<BoundQuery> BindSql(const Database& db, const std::string& sql) {
  DPCF_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  return BindQuery(db, parsed);
}

}  // namespace dpcf
