// Row (de)serialization and zero-copy row views.
//
// RowView reads column values directly from page bytes without materializing
// a Tuple — the storage-engine predicate evaluator and the page-count
// monitors run on RowViews; Tuples are only built for rows that survive the
// pushed-down predicates and cross into the relational engine.

#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "table/schema.h"
#include "table/value.h"

namespace dpcf {

/// Zero-copy view of one encoded row. Valid only while the underlying page
/// stays pinned.
class RowView {
 public:
  RowView(const char* data, const Schema* schema)
      : data_(data), schema_(schema) {}

  int64_t GetInt64(size_t col) const {
    int64_t v;
    std::memcpy(&v, data_ + schema_->offset(col), sizeof(v));
    return v;
  }

  std::string_view GetString(size_t col) const {
    return std::string_view(data_ + schema_->offset(col),
                            schema_->column(col).size);
  }

  Value GetValue(size_t col) const;

  /// Materializes the named columns (all columns if `projection` is empty).
  Tuple Materialize(const std::vector<int>& projection = {}) const;

  const char* data() const { return data_; }
  const Schema* schema() const { return schema_; }

 private:
  const char* data_;
  const Schema* schema_;
};

/// Zero-copy view of the rows of one heap page, the input of the
/// vectorized predicate kernels (DESIGN.md section 12).
///
/// Rebind it to a page image with Reset(). Nothing is gathered or
/// decoded: the kernels read every column, INT64 and CHAR alike, in place
/// at its schema offset in rows row_stride() bytes apart, so a conjunct
/// whose selection vector empties before atom k never touches atom k's
/// column. Valid only while the underlying page stays pinned, like
/// RowView.
class RowBlock {
 public:
  explicit RowBlock(const Schema* schema)
      : schema_(schema), row_size_(schema->row_size()) {}

  /// Rebinds to a page image: `rows` points at the first row (page data +
  /// HeapFile::kHeaderSize), `n` rows follow at row_size() stride.
  void Reset(const char* rows, uint32_t n) {
    rows_ = rows;
    n_ = n;
  }

  uint32_t size() const { return n_; }
  const Schema* schema() const { return schema_; }

  /// Raw bytes of row r (== RowView data pointer for slot r). Column
  /// values are read in place at schema offsets — the kernel's strided
  /// comparators touch each value exactly once, so there is no gather
  /// step (see exec/predicate_kernel.cc).
  const char* row(uint32_t r) const {
    return rows_ + static_cast<size_t>(r) * row_size_;
  }

  /// Base pointer + stride of the bound page image, the form the SIMD
  /// comparators consume (see exec/simd.h): row r lives at
  /// rows_base() + r * row_stride().
  const char* rows_base() const { return rows_; }
  uint32_t row_stride() const { return row_size_; }

 private:
  const Schema* schema_;
  uint32_t row_size_;
  const char* rows_ = nullptr;
  uint32_t n_ = 0;
};

/// Encodes/decodes Tuples to/from the fixed-width row format.
class RowCodec {
 public:
  explicit RowCodec(const Schema* schema) : schema_(schema) {}

  /// Writes the tuple into `out` (at least schema->row_size() bytes).
  /// Fails if arity or a value type mismatches; CHAR values longer than the
  /// declared width are rejected, shorter ones are space-padded.
  Status Encode(const Tuple& tuple, char* out) const;

  /// Full decode into a Tuple (strings are right-trimmed of padding).
  Tuple Decode(const char* data) const;

 private:
  const Schema* schema_;
};

}  // namespace dpcf
