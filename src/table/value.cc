#include "table/value.h"

#include <cassert>

#include "common/string_util.h"

namespace dpcf {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::operator==(const Value& o) const {
  if (type_ != o.type_) return false;
  return type_ == ValueType::kInt64 ? i_ == o.i_ : s_ == o.s_;
}

int Value::Compare(const Value& o) const {
  assert(type_ == o.type_);
  if (type_ == ValueType::kInt64) {
    return i_ < o.i_ ? -1 : (i_ > o.i_ ? 1 : 0);
  }
  int c = s_.compare(o.s_);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string Value::ToString() const {
  if (type_ == ValueType::kInt64) return std::to_string(i_);
  return "'" + s_ + "'";
}

std::string TupleToString(const Tuple& t) {
  std::vector<std::string> parts;
  parts.reserve(t.size());
  for (const Value& v : t) parts.push_back(v.ToString());
  return StrFormat("(%s)", Join(parts, ", ").c_str());
}

}  // namespace dpcf
