// Paged B+-tree.
//
// Backs every index in the engine: secondary (non-clustered) indexes map
// (key [, second key column], rid) to the table row, and the clustered key
// index maps the clustering key to its rid so range scans can locate their
// starting data page. Nodes are read through the buffer pool, so index
// traversal I/O is charged to the run like any other page access.
//
// Keys are composite (k1, k2) int64 pairs — wide enough for the one- and
// two-column indexes the paper's experiments use. Duplicate keys are
// supported by treating the stored (k1, k2, aux) triple as the full
// comparison key (aux carries the packed Rid, which is unique per row).
//
// Build-once: Btree::Build lays a tree out bottom-up from sorted entries
// (the index build); after that it is only read — point/range seeks via
// iterators. The build makes each node's page image in memory and appends
// the finished image to the disk, once (DiskManager::AppendPage): the
// segment holds exactly the tree's pages, no build step goes through the
// buffer pool, and no node changes after it is appended.
// CheckInvariants() validates ordering, separator and leaf-chain
// invariants for the test suite.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace dpcf {

/// Composite index key. Single-column indexes keep k2 = 0.
struct BtreeKey {
  int64_t k1 = 0;
  int64_t k2 = 0;

  bool operator==(const BtreeKey&) const = default;
  auto operator<=>(const BtreeKey&) const = default;

  /// Smallest/largest keys with a given leading column — used to turn a
  /// range predicate on the leading column into a full composite range.
  static BtreeKey Min(int64_t k1) { return BtreeKey{k1, INT64_MIN}; }
  static BtreeKey Max(int64_t k1) { return BtreeKey{k1, INT64_MAX}; }

  std::string ToString() const;
};

/// One index entry: composite key plus auxiliary payload (packed Rid).
struct BtreeEntry {
  BtreeKey key;
  uint64_t aux = 0;

  bool operator==(const BtreeEntry&) const = default;
  auto operator<=>(const BtreeEntry&) const = default;
};

/// Forward iterator over leaf entries in key order. Holds a pin on the
/// current leaf page; Next() follows the leaf chain (charging I/O).
class BtreeIterator {
 public:
  BtreeIterator() = default;

  bool Valid() const { return valid_; }
  const BtreeKey& key() const { return entry_.key; }
  uint64_t aux() const { return entry_.aux; }
  const BtreeEntry& entry() const { return entry_; }

  /// Page number of the current leaf (for leaf-page grouping).
  PageNo leaf_page() const { return leaf_; }

  /// Advances to the next entry; clears Valid() at the end of the index.
  Status Next();

  /// Leaf-run iteration: appends to `out` (cleared first) every entry from
  /// the current position with key <= hi, stopping at the end of the
  /// current leaf — so one call drains at most one leaf and the caller
  /// never buffers more than a leaf's worth of entries. On return the
  /// iterator stands on the first unconsumed entry: the in-leaf entry that
  /// exceeded hi, or the head of the next leaf (invalid at index end).
  /// Performs exactly the page fetches the equivalent per-entry Next()
  /// sequence would, in the same order, so I/O charging is identical. An
  /// empty `out` with Valid() still set means the bound was hit — the
  /// range is exhausted.
  Status NextRun(const BtreeKey& hi, std::vector<BtreeEntry>* out);

 private:
  friend class Btree;

  Status LoadCurrent();

  BufferPool* pool_ = nullptr;
  SegmentId segment_ = kInvalidSegment;
  PageGuard guard_;
  PageNo leaf_ = kInvalidPageNo;
  uint32_t idx_ = 0;
  uint32_t leaf_count_ = 0;
  BtreeEntry entry_;
  bool valid_ = false;
};

/// Paged B+-tree over one buffer-pool segment.
class Btree {
 public:
  /// Builds the tree over `sorted` in a fresh segment. `sorted` must be
  /// strictly ascending by (key, aux), else InvalidArgument (and no
  /// segment is created). Each level is filled left to right, nodes to
  /// capacity; the tail of a level takes the remainder. Pages are appended
  /// leaves first, then each upper level, each once its image is final:
  /// the leaves take page numbers 0, 1, ..., so each leaf's chain links
  /// are known before it is appended. An empty input gets one empty root
  /// leaf.
  static Result<Btree> Build(BufferPool* pool, std::string name,
                             const std::vector<BtreeEntry>& sorted);

  /// Positions an iterator at the first entry with key >= lo.
  Result<BtreeIterator> SeekFirst(const BtreeKey& lo);

  /// Iterator from the smallest entry.
  Result<BtreeIterator> Begin();

  /// Convenience: collects aux values of all entries with lo <= key <= hi.
  Status CollectRange(const BtreeKey& lo, const BtreeKey& hi,
                      std::vector<uint64_t>* out);

  int64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }
  uint32_t page_count() const {
    return pool_->disk()->SegmentPageCount(segment_);
  }
  SegmentId segment() const { return segment_; }
  const std::string& name() const { return name_; }

  uint32_t leaf_capacity() const { return leaf_capacity_; }
  uint32_t internal_capacity() const { return internal_capacity_; }

  /// Verifies structural invariants (ordering within nodes, separator
  /// bounds, leaf chain completeness and global order, entry count).
  Status CheckInvariants() const;

 private:
  Btree(BufferPool* pool, SegmentId segment, std::string name);

  Status FindLeaf(const BtreeKey& lo, PageNo* leaf) const;

  Status CheckNode(PageNo node, uint32_t level,
                   const std::optional<BtreeEntry>& lower,
                   const std::optional<BtreeEntry>& upper,
                   int64_t* entries_seen, PageNo* leftmost_leaf) const;

  BufferPool* pool_;
  SegmentId segment_;
  std::string name_;
  PageNo root_ = kInvalidPageNo;
  uint32_t height_ = 1;  // levels including the leaf level
  int64_t entry_count_ = 0;
  uint32_t leaf_capacity_ = 0;
  uint32_t internal_capacity_ = 0;
};

}  // namespace dpcf
