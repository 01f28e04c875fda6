#include "workload/query_gen.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "workload/synthetic.h"

namespace dpcf {

std::vector<GeneratedSingleQuery> GenerateSyntheticSingleTableQueries(
    Table* t, int per_column, double min_sel, double max_sel,
    uint64_t seed) {
  Rng rng(seed);
  const int64_t n = t->row_count();
  std::vector<GeneratedSingleQuery> out;
  const int cols[] = {kC2, kC3, kC4, kC5};
  for (int col : cols) {
    for (int q = 0; q < per_column; ++q) {
      double sel = min_sel + rng.NextDouble() * (max_sel - min_sel);
      // Ci is a permutation of 1..n, so "Ci < v" selects exactly v-1 rows.
      int64_t v = std::max<int64_t>(2, static_cast<int64_t>(sel * n));
      GeneratedSingleQuery g;
      g.query.table = t;
      g.query.pred.Add(PredicateAtom::Int64(col, CmpOp::kLt, v));
      g.query.count_star = true;
      g.query.count_col = kPadding;  // COUNT(padding): defeats covering
      g.column = col;
      g.target_selectivity = sel;
      g.description = StrFormat(
          "SELECT COUNT(padding) FROM %s WHERE %s < %lld",
          t->name().c_str(),
          t->schema().column(static_cast<size_t>(col)).name.c_str(),
          static_cast<long long>(v));
      out.push_back(std::move(g));
    }
  }
  return out;
}

std::vector<GeneratedJoinQuery> GenerateSyntheticJoinQueries(
    Table* t, Table* t1, int count, double min_sel, double max_sel,
    uint64_t seed) {
  Rng rng(seed);
  const int64_t n = t1->row_count();
  std::vector<GeneratedJoinQuery> out;
  const int cols[] = {kC2, kC3, kC4, kC5};
  for (int q = 0; q < count; ++q) {
    int col = cols[q % 4];
    double sel = min_sel + rng.NextDouble() * (max_sel - min_sel);
    int64_t v = std::max<int64_t>(2, static_cast<int64_t>(sel * n));
    GeneratedJoinQuery g;
    g.query.outer_table = t1;
    g.query.outer_pred.Add(PredicateAtom::Int64(kC1, CmpOp::kLt, v));
    g.query.outer_col = col;
    g.query.inner_table = t;
    g.query.inner_col = col;
    g.query.count_star = true;
    g.query.inner_count_col = kPadding;  // COUNT(T.padding)
    g.column = col;
    g.target_selectivity = sel;
    const std::string& cn =
        t->schema().column(static_cast<size_t>(col)).name;
    g.description = StrFormat(
        "SELECT COUNT(%s.padding) FROM %s JOIN %s ON %s.%s = %s.%s "
        "WHERE %s.C1 < %lld",
        t->name().c_str(), t1->name().c_str(), t->name().c_str(),
        t1->name().c_str(), cn.c_str(), t->name().c_str(), cn.c_str(),
        t1->name().c_str(), static_cast<long long>(v));
    out.push_back(std::move(g));
  }
  return out;
}

SingleTableQuery GenerateMultiPredicateQuery(Table* t, int num_atoms,
                                             double per_atom_sel,
                                             uint64_t seed) {
  Rng rng(seed);
  const int64_t n = t->row_count();
  SingleTableQuery q;
  q.table = t;
  q.count_star = true;
  q.count_col = kPadding;
  const int cols[] = {kC2, kC3, kC4, kC5};
  for (int a = 0; a < num_atoms; ++a) {
    int col = cols[a % 4];
    int round = a / 4;
    int64_t hi = std::max<int64_t>(
        3, static_cast<int64_t>(per_atom_sel * n));
    if (round == 0) {
      q.pred.Add(PredicateAtom::Int64(col, CmpOp::kLt, hi));
    } else {
      // Second atom on the same column forms a band (still a range, so
      // index-sargable together with the first atom).
      int64_t lo = std::max<int64_t>(1, hi * 3 / 10);
      q.pred.Add(PredicateAtom::Int64(col, CmpOp::kGe, lo));
    }
    (void)rng;
  }
  return q;
}

namespace {
std::map<int64_t, int64_t> ColumnFrequencies(DiskManager* disk,
                                             const Table& t, int col) {
  std::map<int64_t, int64_t> freq;
  t.file()->ForEachRawRow(disk, [&](PageNo, uint16_t, const RowView& row) {
    ++freq[row.GetInt64(static_cast<size_t>(col))];
  });
  return freq;
}
}  // namespace

std::vector<GeneratedSingleQuery> GenerateRealWorldQueries(
    DiskManager* disk, Table* t, const std::vector<int>& predicate_cols,
    int per_column, double max_sel, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = t->row_count();
  std::vector<GeneratedSingleQuery> out;
  for (int col : predicate_cols) {
    std::map<int64_t, int64_t> freq = ColumnFrequencies(disk, *t, col);
    // Candidate values whose equality selectivity is within bounds (and
    // not vanishingly small — the paper shows selectivities up to 10%).
    std::vector<int64_t> candidates;
    for (const auto& [v, c] : freq) {
      double sel = static_cast<double>(c) / static_cast<double>(n);
      if (sel <= max_sel && sel >= max_sel / 400) candidates.push_back(v);
    }
    if (candidates.empty()) continue;
    Shuffle(&candidates, &rng);
    const std::string& cn =
        t->schema().column(static_cast<size_t>(col)).name;
    for (int q = 0;
         q < per_column && q < static_cast<int>(candidates.size()); ++q) {
      int64_t v = candidates[static_cast<size_t>(q)];
      GeneratedSingleQuery g;
      g.query.table = t;
      g.query.pred.Add(PredicateAtom::Int64(col, CmpOp::kEq, v));
      g.query.count_star = true;
      // Reference the payload column so no index covers the query.
      g.query.count_col =
          static_cast<int>(t->schema().num_columns()) - 1;
      g.column = col;
      g.target_selectivity =
          static_cast<double>(freq[v]) / static_cast<double>(n);
      g.description =
          StrFormat("SELECT COUNT(*) FROM %s WHERE %s = %lld",
                    t->name().c_str(), cn.c_str(),
                    static_cast<long long>(v));
      out.push_back(std::move(g));
    }
  }
  return out;
}

std::vector<GeneratedSingleQuery> GenerateRealWorldRangeQueries(
    DiskManager* disk, Table* t, const std::vector<int>& predicate_cols,
    int per_column, double min_sel, double max_sel, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = t->row_count();
  std::vector<GeneratedSingleQuery> out;
  for (int col : predicate_cols) {
    std::map<int64_t, int64_t> freq = ColumnFrequencies(disk, *t, col);
    std::vector<std::pair<int64_t, int64_t>> sorted(freq.begin(),
                                                    freq.end());
    if (sorted.size() < 2) continue;
    const std::string& cn =
        t->schema().column(static_cast<size_t>(col)).name;
    for (int q = 0; q < per_column; ++q) {
      double target = min_sel + rng.NextDouble() * (max_sel - min_sel);
      int64_t want = static_cast<int64_t>(target * n);
      size_t start = rng.NextBounded(sorted.size());
      int64_t got = 0;
      size_t end = start;
      while (end < sorted.size() && got < want) {
        got += sorted[end].second;
        ++end;
      }
      if (got == 0) continue;
      int64_t lo = sorted[start].first;
      int64_t hi = sorted[end - 1].first;
      GeneratedSingleQuery g;
      g.query.table = t;
      g.query.pred.Add(PredicateAtom::Int64(col, CmpOp::kGe, lo));
      g.query.pred.Add(PredicateAtom::Int64(col, CmpOp::kLe, hi));
      g.query.count_star = true;
      g.query.count_col = static_cast<int>(t->schema().num_columns()) - 1;
      g.column = col;
      g.target_selectivity = static_cast<double>(got) / n;
      g.description = StrFormat(
          "SELECT COUNT(*) FROM %s WHERE %s >= %lld AND %s <= %lld",
          t->name().c_str(), cn.c_str(), static_cast<long long>(lo),
          cn.c_str(), static_cast<long long>(hi));
      out.push_back(std::move(g));
    }
  }
  return out;
}

}  // namespace dpcf
