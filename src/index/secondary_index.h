// Secondary (non-clustered) indexes and the clustered-key index.
//
// An Index wraps a paged B+-tree whose entries map the key columns of a row
// to its packed Rid. Non-clustered indexes drive Index Seek / Index
// Intersection / Index Nested Loops plans — the plans whose costing depends
// on the distinct page count the paper's monitors measure. The clustered-key
// index (is_clustered_key()) locates the first data page of a clustering-key
// range for clustered range scans. An index is built once over a loaded
// table and never maintained: tables take no writes after load.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/btree.h"
#include "table/table.h"

namespace dpcf {

/// One index over one table. Key is 1 or 2 INT64 columns.
class Index {
 public:
  /// Scans `table` (bypassing I/O accounting: index build is a DDL-time
  /// bulk operation) and bulk-loads the tree.
  static Result<std::unique_ptr<Index>> Build(BufferPool* pool, Table* table,
                                              std::string name,
                                              std::vector<int> key_cols,
                                              bool is_clustered_key = false);

  const std::string& name() const { return name_; }
  Table* table() const { return table_; }
  const std::vector<int>& key_cols() const { return key_cols_; }
  int leading_col() const { return key_cols_[0]; }
  bool is_clustered_key() const { return is_clustered_key_; }

  Btree* tree() { return tree_.get(); }
  const Btree* tree() const { return tree_.get(); }

  /// Extracts this index's composite key from a row image.
  BtreeKey KeyForRow(const RowView& row) const;

  /// True if the index key columns include every column in `cols`
  /// (the query can be answered by a covering index scan).
  bool Covers(const std::vector<int>& cols) const;

  /// Pages in the index (tree pages; used by the optimizer's cost model).
  uint32_t page_count() const { return tree_->page_count(); }

 private:
  Index(Table* table, std::string name, std::vector<int> key_cols,
        bool is_clustered_key);

  Table* table_;
  std::string name_;
  std::vector<int> key_cols_;
  bool is_clustered_key_;
  std::unique_ptr<Btree> tree_;
};

}  // namespace dpcf
