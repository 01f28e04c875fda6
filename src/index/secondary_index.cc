#include "index/secondary_index.h"

#include <algorithm>

#include "common/string_util.h"

namespace dpcf {

Index::Index(Table* table, std::string name, std::vector<int> key_cols,
             bool is_clustered_key)
    : table_(table),
      name_(std::move(name)),
      key_cols_(std::move(key_cols)),
      is_clustered_key_(is_clustered_key) {}

BtreeKey Index::KeyForRow(const RowView& row) const {
  BtreeKey key;
  key.k1 = row.GetInt64(static_cast<size_t>(key_cols_[0]));
  key.k2 = key_cols_.size() > 1
               ? row.GetInt64(static_cast<size_t>(key_cols_[1]))
               : 0;
  return key;
}

bool Index::Covers(const std::vector<int>& cols) const {
  return std::all_of(cols.begin(), cols.end(), [this](int c) {
    return std::find(key_cols_.begin(), key_cols_.end(), c) !=
           key_cols_.end();
  });
}

Result<std::unique_ptr<Index>> Index::Build(BufferPool* pool, Table* table,
                                            std::string name,
                                            std::vector<int> key_cols,
                                            bool is_clustered_key) {
  if (key_cols.empty() || key_cols.size() > 2) {
    return Status::NotSupported("indexes support 1 or 2 key columns");
  }
  for (int c : key_cols) {
    if (c < 0 || c >= static_cast<int>(table->schema().num_columns())) {
      return Status::InvalidArgument(StrFormat("bad key column %d", c));
    }
    if (table->schema().column(c).type != ValueType::kInt64) {
      return Status::NotSupported(
          "index key columns must be INT64 (dictionary-encode strings)");
    }
  }
  // make_unique cannot reach the private constructor (Database is the
  // sole factory); the pointer is owned before any fallible step runs.
  auto index = std::unique_ptr<Index>(
      new Index(table, std::move(name), std::move(key_cols),  // NOLINT(dpcf-naked-new)
                is_clustered_key));
  // Collect entries by walking the raw data pages (build time: counted in
  // raw_page_reads, charged to no run). TableBuilder wrote every one of
  // them to the disk.
  std::vector<BtreeEntry> entries;
  entries.reserve(static_cast<size_t>(table->row_count()));
  table->file()->ForEachRawRow(
      pool->disk(), [&](PageNo p, uint16_t s, const RowView& row) {
        entries.push_back(BtreeEntry{index->KeyForRow(row), Rid{p, s}.Pack()});
      });
  // A clustering-key walk already comes out sorted (entries are unique,
  // so skipping the sort changes nothing).
  if (!std::is_sorted(entries.begin(), entries.end())) {
    std::sort(entries.begin(), entries.end());
  }
  DPCF_ASSIGN_OR_RETURN(Btree tree, Btree::Build(pool, index->name_, entries));
  index->tree_ = std::make_unique<Btree>(std::move(tree));
  return index;
}

}  // namespace dpcf
