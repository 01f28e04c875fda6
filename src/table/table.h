// Table metadata and bulk loading.
//
// A table is physically a heap file plus metadata. Clustered tables are heap
// files whose rows were appended in clustering-key order by the TableBuilder
// (Example 1 in the paper: whether Shipdate is correlated with the load order
// is exactly what determines the distinct page count of a predicate).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/heap_file.h"
#include "table/schema.h"

namespace dpcf {

enum class TableOrganization {
  kHeap,       // rows in arrival order
  kClustered,  // rows sorted by the clustering key column
};

/// Metadata + storage handle for one table. Created through
/// Database::CreateTable / TableBuilder; owned by the Catalog.
class Table {
 public:
  Table(std::string name, std::unique_ptr<Schema> schema,
        TableOrganization organization, int cluster_key_col,
        BufferPool* pool, SegmentId segment);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  TableOrganization organization() const { return organization_; }

  /// Clustering key column index; -1 for heaps.
  int cluster_key_col() const { return cluster_key_col_; }

  HeapFile* file() { return &file_; }
  const HeapFile* file() const { return &file_; }

  SegmentId segment() const { return file_.segment(); }
  uint32_t page_count() const { return file_.page_count(); }
  int64_t row_count() const { return file_.row_count(); }
  uint32_t rows_per_page() const { return file_.rows_per_page(); }

 private:
  std::string name_;
  std::unique_ptr<Schema> schema_;
  TableOrganization organization_;
  int cluster_key_col_;
  HeapFile file_;
};

/// Accumulates rows in memory, sorts them by the clustering key when the
/// table is clustered, and writes the heap file: each page image goes
/// straight to the disk, once, and none passes through the buffer pool.
/// Loading is a bulk operation outside any measured run; callers reset I/O
/// stats afterwards.
class TableBuilder {
 public:
  /// `table` must be freshly created and empty.
  explicit TableBuilder(Table* table);

  Status AddRow(const Tuple& tuple);

  /// Sorts (if clustered) and writes all buffered rows.
  Status Finish();

 private:
  Table* table_;
  RowCodec codec_;
  uint32_t row_size_;
  std::vector<char> buffer_;
  int64_t buffered_rows_ = 0;
  bool finished_ = false;
};

}  // namespace dpcf
