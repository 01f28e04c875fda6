// Heap file: the on-"disk" row store for a table.
//
// A heap file is one segment of fixed-width data pages. Page layout:
//   [uint32 row_count][8-byte aligned rows...]
// Rows are appended in arrival order; a clustered table is simply a heap
// file whose rows were appended in clustering-key order by the TableBuilder,
// which is what gives scans the paper's *grouped page access* property and
// makes correlated predicates touch few distinct pages.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "table/row_codec.h"
#include "table/schema.h"

namespace dpcf {

/// Row identifier within one table: (data page number, slot in page).
struct Rid {
  PageNo page_no = kInvalidPageNo;
  uint16_t slot = 0;

  bool valid() const { return page_no != kInvalidPageNo; }

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page_no) << 16) | slot;
  }
  static Rid Unpack(uint64_t packed) {
    return Rid{static_cast<PageNo>(packed >> 16),
               static_cast<uint16_t>(packed & 0xffff)};
  }

  bool operator==(const Rid&) const = default;
  auto operator<=>(const Rid&) const = default;

  std::string ToString() const {
    return std::to_string(page_no) + "." + std::to_string(slot);
  }
};

/// Fixed-width-row page store over one segment.
///
/// Build-once: appends fill the tail page in a page-sized buffer, and the
/// finished image is appended to the disk (DiskManager::AppendPage) once,
/// when the page fills or at Seal, so loading never goes through the buffer
/// pool and no page changes after it exists. The tail page's number is
/// fixed when its first row arrives (the segment's next page), so a row's
/// Rid is final before its page is appended. The file is only read after
/// Seal. Reads go through the buffer pool so physical I/O is charged to
/// the run. Offline readers walk the raw page images instead, a
/// page at a time (ForEachRawPage) or a row at a time (ForEachRawRow, built
/// on it).
class HeapFile {
 public:
  HeapFile(BufferPool* pool, SegmentId segment, const Schema* schema);

  static constexpr uint32_t kHeaderSize = 8;

  /// Rows that fit in one page for this schema/page size.
  uint32_t rows_per_page() const { return rows_per_page_; }
  SegmentId segment() const { return segment_; }
  const Schema* schema() const { return schema_; }

  uint32_t page_count() const { return page_count_; }
  int64_t row_count() const { return row_count_; }

  /// Appends an encoded row (schema->row_size() bytes); returns its Rid.
  Result<Rid> AppendEncoded(const char* row);

  /// Encodes and appends a tuple.
  Result<Rid> Append(const Tuple& tuple);

  /// Appends the partly filled tail page, if any; call once, when loading
  /// is done. Nothing appends afterwards.
  Status Seal();

  /// Pins the page holding `rid` and returns the guard; `out_row` points at
  /// the row bytes (valid while the guard lives).
  Result<PageGuard> FetchRow(Rid rid, const char** out_row);

  /// Number of rows stored in the given (already fetched) page image.
  static uint32_t PageRowCount(const char* page_data);
  static void SetPageRowCount(char* page_data, uint32_t n);

  /// Pointer to slot `slot` in a fetched page image.
  const char* RowInPage(const char* page_data, uint16_t slot) const {
    return page_data + kHeaderSize +
           static_cast<size_t>(slot) * schema_->row_size();
  }

  /// Pointer to the first row of a fetched page image; rows follow at
  /// schema row_size() stride (feed for RowBlock::Reset).
  static const char* PageRows(const char* page_data) {
    return page_data + kHeaderSize;
  }

  /// Calls fn(page_no, rows, n) for every page, in page order, where the
  /// page's n rows start at `rows` and follow at schema row_size() stride
  /// (feed for RowBlock::Reset). Reads page images straight off the disk:
  /// DiskManager::RawPage bypasses the buffer pool and counts each page in
  /// IoStats::raw_page_reads. The one raw walk behind every offline table
  /// read: the exact-cardinality oracles and the clustering ratio walk
  /// pages, statistics and index bulk builds walk rows (ForEachRawRow).
  template <typename Fn>
  void ForEachRawPage(DiskManager* disk, Fn&& fn) const {
    for (PageNo p = 0; p < page_count_; ++p) {
      const char* page = disk->RawPage(PageId{segment_, p});
      fn(p, PageRows(page), PageRowCount(page));
    }
  }

  /// Calls fn(page_no, slot, row) for every row, in page then slot order,
  /// over ForEachRawPage.
  template <typename Fn>
  void ForEachRawRow(DiskManager* disk, Fn&& fn) const {
    const size_t row_size = schema_->row_size();
    ForEachRawPage(disk, [&](PageNo p, const char* rows, uint32_t n) {
      for (uint16_t s = 0; s < n; ++s) {
        fn(p, s, RowView(rows + s * row_size, schema_));
      }
    });
  }

 private:
  /// Appends the tail page's image to the disk; the next row starts a new
  /// page.
  Status WriteTail();

  BufferPool* pool_;
  SegmentId segment_;
  const Schema* schema_;
  uint32_t rows_per_page_;
  uint32_t page_count_ = 0;
  int64_t row_count_ = 0;

  // Tail page being filled by Append: its image and its row count (0 when
  // no page is open). An open tail page is page page_count_ - 1.
  std::vector<char> tail_;
  uint32_t tail_rows_ = 0;
};

}  // namespace dpcf
