#include "table/schema.h"

#include "common/string_util.h"

namespace dpcf {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  offsets_.reserve(columns_.size());
  uint32_t off = 0;
  for (const Column& c : columns_) {
    offsets_.push_back(off);
    off += c.size;
  }
  row_size_ = off;
}

int Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    if (c.type == ValueType::kInt64) {
      parts.push_back(c.name + " INT64");
    } else {
      parts.push_back(StrFormat("%s CHAR(%u)", c.name.c_str(), c.size));
    }
  }
  return StrFormat("(%s)", Join(parts, ", ").c_str());
}

}  // namespace dpcf
