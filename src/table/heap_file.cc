#include "table/heap_file.h"

#include <cassert>
#include <cstring>

#include "common/string_util.h"

namespace dpcf {

HeapFile::HeapFile(BufferPool* pool, SegmentId segment, const Schema* schema)
    : pool_(pool), segment_(segment), schema_(schema) {
  assert(schema_->row_size() > 0);
  size_t usable = pool_->disk()->page_size() - kHeaderSize;
  rows_per_page_ = static_cast<uint32_t>(usable / schema_->row_size());
  assert(rows_per_page_ > 0 && "row wider than a page");
  page_count_ = pool_->disk()->SegmentPageCount(segment_);
}

uint32_t HeapFile::PageRowCount(const char* page_data) {
  uint32_t n;
  std::memcpy(&n, page_data, sizeof(n));
  return n;
}

void HeapFile::SetPageRowCount(char* page_data, uint32_t n) {
  std::memcpy(page_data, &n, sizeof(n));
}

Result<Rid> HeapFile::AppendEncoded(const char* row) {
  if (tail_rows_ == 0) {
    // A new page starts zeroed. It takes the segment's next page number,
    // which WriteTail's append will give it.
    tail_.assign(pool_->disk()->page_size(), 0);
    ++page_count_;
  }
  std::memcpy(tail_.data() + kHeaderSize +
                  static_cast<size_t>(tail_rows_) * schema_->row_size(),
              row, schema_->row_size());
  Rid rid{page_count_ - 1, static_cast<uint16_t>(tail_rows_)};
  SetPageRowCount(tail_.data(), ++tail_rows_);
  ++row_count_;
  if (tail_rows_ == rows_per_page_) {
    DPCF_RETURN_IF_ERROR(WriteTail());
  }
  return rid;
}

Status HeapFile::WriteTail() {
  tail_rows_ = 0;
  DPCF_ASSIGN_OR_RETURN(const PageNo page,
                        pool_->disk()->AppendPage(segment_, tail_.data()));
  // This file is the segment's only writer, so pages arrive in order.
  assert(page == page_count_ - 1);
  (void)page;
  return Status::OK();
}

Result<Rid> HeapFile::Append(const Tuple& tuple) {
  RowCodec codec(schema_);
  // Row width is bounded by the page size, so a stack-ish buffer is fine.
  std::string buf(schema_->row_size(), '\0');
  DPCF_RETURN_IF_ERROR(codec.Encode(tuple, buf.data()));
  return AppendEncoded(buf.data());
}

Status HeapFile::Seal() {
  return tail_rows_ == 0 ? Status::OK() : WriteTail();
}

Result<PageGuard> HeapFile::FetchRow(Rid rid, const char** out_row) {
  if (rid.page_no >= page_count_) {
    return Status::OutOfRange(
        StrFormat("rid %s beyond %u pages", rid.ToString().c_str(),
                  page_count_));
  }
  auto guard = pool_->Fetch(PageId{segment_, rid.page_no});
  if (!guard.ok()) return guard.status();
  const char* page = guard->data();
  if (rid.slot >= PageRowCount(page)) {
    return Status::OutOfRange(
        StrFormat("rid %s: slot beyond %u rows", rid.ToString().c_str(),
                  PageRowCount(page)));
  }
  *out_row = RowInPage(page, rid.slot);
  return std::move(guard).value();
}

}  // namespace dpcf
