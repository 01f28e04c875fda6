#include "optimizer/histogram.h"

#include <algorithm>
#include <cassert>

namespace dpcf {

Result<Histogram> Histogram::Build(DiskManager* disk, const Table& table,
                                   int col, int num_buckets) {
  if (col < 0 || col >= static_cast<int>(table.schema().num_columns())) {
    return Status::InvalidArgument("histogram column out of range");
  }
  if (table.schema().column(static_cast<size_t>(col)).type !=
      ValueType::kInt64) {
    return Status::NotSupported("histograms require INT64 columns");
  }
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(table.row_count()));
  table.file()->ForEachRawRow(disk, [&](PageNo, uint16_t, const RowView& row) {
    values.push_back(row.GetInt64(static_cast<size_t>(col)));
  });
  return FromValues(std::move(values), num_buckets);
}

Histogram Histogram::FromValues(std::vector<int64_t> values,
                                int num_buckets) {
  Histogram h;
  if (values.empty()) return h;
  if (!std::is_sorted(values.begin(), values.end())) {
    std::sort(values.begin(), values.end());
  }
  h.row_count_ = static_cast<int64_t>(values.size());
  h.min_ = values.front();
  h.max_ = values.back();
  num_buckets = std::max(1, num_buckets);
  int64_t per_bucket =
      std::max<int64_t>(1, (h.row_count_ + num_buckets - 1) / num_buckets);
  size_t i = 0;
  while (i < values.size()) {
    size_t end = std::min(values.size(), i + static_cast<size_t>(per_bucket));
    // Extend so a value never straddles buckets.
    while (end < values.size() && values[end] == values[end - 1]) ++end;
    int64_t rows = static_cast<int64_t>(end - i);
    double distinct = 1;
    for (size_t j = i + 1; j < end; ++j) {
      if (values[j] != values[j - 1]) distinct += 1;
    }
    h.upper_.push_back(values[end - 1]);
    h.rows_.push_back(rows);
    h.distinct_.push_back(distinct);
    h.distinct_total_ += distinct;
    i = end;
  }
  return h;
}

double Histogram::EstimateRange(int64_t lo, int64_t hi) const {
  if (row_count_ == 0 || lo > hi || hi < min_ || lo > max_) return 0;
  double total = 0;
  int64_t bucket_lo = min_;
  for (size_t b = 0; b < upper_.size(); ++b) {
    int64_t bucket_hi = upper_[b];
    // Overlap of [lo, hi] with [bucket_lo, bucket_hi], assuming uniform
    // spread within the bucket.
    int64_t olo = std::max(lo, bucket_lo);
    int64_t ohi = std::min(hi, bucket_hi);
    if (olo <= ohi) {
      double width = static_cast<double>(bucket_hi - bucket_lo) + 1;
      double overlap = static_cast<double>(ohi - olo) + 1;
      total += static_cast<double>(rows_[b]) * (overlap / width);
    }
    bucket_lo = bucket_hi + 1;
    if (bucket_lo > hi) break;
  }
  return std::min(total, static_cast<double>(row_count_));
}

double Histogram::EstimateEq(int64_t v) const {
  if (row_count_ == 0 || v < min_ || v > max_) return 0;
  int64_t bucket_lo = min_;
  for (size_t b = 0; b < upper_.size(); ++b) {
    if (v <= upper_[b]) {
      return static_cast<double>(rows_[b]) / std::max(1.0, distinct_[b]);
    }
    bucket_lo = upper_[b] + 1;
  }
  (void)bucket_lo;
  return 0;
}

}  // namespace dpcf
