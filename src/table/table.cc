#include "table/table.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/string_util.h"

namespace dpcf {

Table::Table(std::string name, std::unique_ptr<Schema> schema,
             TableOrganization organization, int cluster_key_col,
             BufferPool* pool, SegmentId segment)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      organization_(organization),
      cluster_key_col_(cluster_key_col),
      file_(pool, segment, schema_.get()) {}

TableBuilder::TableBuilder(Table* table)
    : table_(table),
      codec_(&table->schema()),
      row_size_(table->schema().row_size()) {}

Status TableBuilder::AddRow(const Tuple& tuple) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  size_t off = buffer_.size();
  buffer_.resize(off + row_size_);
  DPCF_RETURN_IF_ERROR(codec_.Encode(tuple, buffer_.data() + off));
  ++buffered_rows_;
  return Status::OK();
}

Status TableBuilder::Finish() {
  if (finished_) return Status::InvalidArgument("builder already finished");
  finished_ = true;

  std::vector<int64_t> order(static_cast<size_t>(buffered_rows_));
  std::iota(order.begin(), order.end(), 0);

  if (table_->organization() == TableOrganization::kClustered) {
    int key_col = table_->cluster_key_col();
    if (key_col < 0 ||
        key_col >= static_cast<int>(table_->schema().num_columns())) {
      return Status::InvalidArgument(
          StrFormat("invalid clustering column %d", key_col));
    }
    if (table_->schema().column(key_col).type != ValueType::kInt64) {
      return Status::NotSupported("clustering key must be INT64");
    }
    uint32_t key_off = table_->schema().offset(key_col);
    const char* base = buffer_.data();
    uint32_t rs = row_size_;
    auto by_key = [base, rs, key_off](int64_t a, int64_t b) {
      int64_t ka, kb;
      std::memcpy(&ka, base + a * rs + key_off, sizeof(ka));
      std::memcpy(&kb, base + b * rs + key_off, sizeof(kb));
      return ka < kb;
    };
    // Loaders usually append in key order; a stable sort of a sorted run
    // is the identity.
    if (!std::is_sorted(order.begin(), order.end(), by_key)) {
      std::stable_sort(order.begin(), order.end(), by_key);
    }
  }

  HeapFile* file = table_->file();
  for (int64_t idx : order) {
    auto rid = file->AppendEncoded(buffer_.data() + idx * row_size_);
    if (!rid.ok()) return rid.status();
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
  // Every page is on the disk once the tail is written, so raw walkers
  // (statistics build, index build, diagnostics) see the data.
  return file->Seal();
}

}  // namespace dpcf
