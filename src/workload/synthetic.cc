#include "workload/synthetic.h"

#include "common/random.h"

namespace dpcf {

Result<Table*> BuildSyntheticTable(Database* db, const std::string& name,
                                   const SyntheticOptions& options) {
  const int64_t n = options.num_rows;
  Schema schema({Column::Int64("C1"), Column::Int64("C2"),
                 Column::Int64("C3"), Column::Int64("C4"),
                 Column::Int64("C5"),
                 Column::Char("padding", options.padding_width)});
  DPCF_ASSIGN_OR_RETURN(
      Table * table,
      db->CreateTable(name, schema, TableOrganization::kClustered, kC1));

  Rng rng(options.seed);
  const int64_t w3 = options.window_c3 > 0 ? options.window_c3
                                           : std::max<int64_t>(2, n / 64);
  const int64_t w4 = options.window_c4 > 0 ? options.window_c4
                                           : std::max<int64_t>(2, n / 16);
  std::vector<int64_t> c3 = WindowShuffledPermutation(n, w3, &rng);
  std::vector<int64_t> c4 = WindowShuffledPermutation(n, w4, &rng);
  std::vector<int64_t> c5 = RandomPermutation(n, &rng);

  TableBuilder builder(table);
  // One row tuple, refilled: the padding value never changes.
  Tuple row(6);
  row[5] = Value::String("pad");
  for (int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<size_t>(i);
    row[0] = Value::Int64(i + 1);
    row[1] = Value::Int64(i + 1);  // C2 = C1
    row[2] = Value::Int64(c3[u] + 1);
    row[3] = Value::Int64(c4[u] + 1);
    row[4] = Value::Int64(c5[u] + 1);
    DPCF_RETURN_IF_ERROR(builder.AddRow(row));
  }
  DPCF_RETURN_IF_ERROR(builder.Finish());

  if (options.build_indexes) {
    DPCF_RETURN_IF_ERROR(
        db->CreateIndex(name + "_c1", name, std::vector<int>{kC1},
                        /*is_clustered_key=*/true)
            .status());
    const int cols[] = {kC2, kC3, kC4, kC5};
    const char* suffix[] = {"_c2", "_c3", "_c4", "_c5"};
    for (int i = 0; i < 4; ++i) {
      DPCF_RETURN_IF_ERROR(
          db->CreateIndex(name + suffix[i], name,
                          std::vector<int>{cols[i]})
              .status());
    }
  }
  return table;
}

}  // namespace dpcf
