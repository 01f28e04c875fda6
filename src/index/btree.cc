#include "index/btree.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace dpcf {

namespace {

// On-page node format. All offsets are 8-byte aligned; entries are POD and
// accessed in place.
struct NodeHeader {
  uint16_t is_leaf;
  uint16_t level;  // 0 for leaves, parent = child level + 1
  uint32_t count;
  PageNo next;  // leaf chain; kInvalidPageNo when none / internal node
  PageNo prev;
};
static_assert(sizeof(NodeHeader) == 16);

struct LeafEntry {
  int64_t k1;
  int64_t k2;
  uint64_t aux;
};
static_assert(sizeof(LeafEntry) == 24);

struct InternalEntry {
  int64_t k1;
  int64_t k2;
  uint64_t aux;
  uint32_t child;
  uint32_t pad;
};
static_assert(sizeof(InternalEntry) == 32);

NodeHeader* Header(char* page) { return reinterpret_cast<NodeHeader*>(page); }
const NodeHeader* Header(const char* page) {
  return reinterpret_cast<const NodeHeader*>(page);
}
LeafEntry* LeafEntries(char* page) {
  return reinterpret_cast<LeafEntry*>(page + sizeof(NodeHeader));
}
const LeafEntry* LeafEntries(const char* page) {
  return reinterpret_cast<const LeafEntry*>(page + sizeof(NodeHeader));
}
InternalEntry* InternalEntries(char* page) {
  return reinterpret_cast<InternalEntry*>(page + sizeof(NodeHeader));
}
const InternalEntry* InternalEntries(const char* page) {
  return reinterpret_cast<const InternalEntry*>(page + sizeof(NodeHeader));
}

// Zero-fills `node` (one page image) and writes its header.
void ResetNode(std::vector<char>* node, bool is_leaf, uint16_t level,
               uint32_t count, PageNo prev) {
  std::fill(node->begin(), node->end(), 0);
  NodeHeader* h = Header(node->data());
  h->is_leaf = is_leaf ? 1 : 0;
  h->level = level;
  h->count = count;
  h->next = kInvalidPageNo;
  h->prev = prev;
}

BtreeEntry ToEntry(const LeafEntry& e) {
  return BtreeEntry{{e.k1, e.k2}, e.aux};
}
BtreeEntry ToEntry(const InternalEntry& e) {
  return BtreeEntry{{e.k1, e.k2}, e.aux};
}

// First index i in the leaf with entries[i] >= target; count if none.
uint32_t LeafLowerBound(const char* page, const BtreeEntry& target) {
  const NodeHeader* h = Header(page);
  const LeafEntry* es = LeafEntries(page);
  uint32_t lo = 0, hi = h->count;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (ToEntry(es[mid]) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child slot for descending towards `target`: the last separator <= target,
// clamped to slot 0 (the first separator acts as -infinity).
uint32_t InternalChildSlot(const char* page, const BtreeEntry& target) {
  const NodeHeader* h = Header(page);
  const InternalEntry* es = InternalEntries(page);
  uint32_t lo = 0, hi = h->count;  // first separator > target
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (target < ToEntry(es[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

}  // namespace

std::string BtreeKey::ToString() const {
  if (k2 == 0) return std::to_string(k1);
  return StrFormat("(%lld,%lld)", static_cast<long long>(k1),
                   static_cast<long long>(k2));
}

Btree::Btree(BufferPool* pool, SegmentId segment, std::string name)
    : pool_(pool), segment_(segment), name_(std::move(name)) {
  size_t usable = pool_->disk()->page_size() - sizeof(NodeHeader);
  leaf_capacity_ = static_cast<uint32_t>(usable / sizeof(LeafEntry));
  internal_capacity_ = static_cast<uint32_t>(usable / sizeof(InternalEntry));
  assert(leaf_capacity_ >= 2 && internal_capacity_ >= 2);
}

Status Btree::FindLeaf(const BtreeKey& lo, PageNo* leaf) const {
  // The minimal entry with key >= lo is >= {lo, 0}? No: aux is unsigned and
  // keys with equal (k1,k2) differ only in aux >= 0, so {lo, aux=0} is the
  // smallest possible entry with this key.
  BtreeEntry target{lo, 0};
  PageNo node = root_;
  for (uint32_t level = height_; level > 1; --level) {
    auto guard = pool_->Fetch(PageId{segment_, node});
    if (!guard.ok()) return guard.status();
    const char* page = guard->data();
    assert(!Header(page)->is_leaf);
    uint32_t slot = InternalChildSlot(page, target);
    node = InternalEntries(page)[slot].child;
  }
  *leaf = node;
  return Status::OK();
}

Result<BtreeIterator> Btree::SeekFirst(const BtreeKey& lo) {
  PageNo leaf;
  DPCF_RETURN_IF_ERROR(FindLeaf(lo, &leaf));
  auto guard = pool_->Fetch(PageId{segment_, leaf});
  if (!guard.ok()) return guard.status();
  BtreeIterator it;
  it.pool_ = pool_;
  it.segment_ = segment_;
  it.guard_ = std::move(guard).value();
  it.leaf_ = leaf;
  it.leaf_count_ = Header(it.guard_.data())->count;
  it.idx_ = LeafLowerBound(it.guard_.data(), BtreeEntry{lo, 0});
  DPCF_RETURN_IF_ERROR(it.LoadCurrent());
  return it;
}

Result<BtreeIterator> Btree::Begin() {
  return SeekFirst(BtreeKey{INT64_MIN, INT64_MIN});
}

Status BtreeIterator::LoadCurrent() {
  // Step past the end of the current leaf onto the next one. Bulk-loaded
  // leaves are never empty, so this takes at most one step.
  while (idx_ >= leaf_count_) {
    PageNo next = Header(guard_.data())->next;
    if (next == kInvalidPageNo) {
      valid_ = false;
      guard_.Release();
      return Status::OK();
    }
    auto g = pool_->Fetch(PageId{segment_, next});
    if (!g.ok()) return g.status();
    guard_ = std::move(g).value();
    leaf_ = next;
    leaf_count_ = Header(guard_.data())->count;
    idx_ = 0;
  }
  entry_ = ToEntry(LeafEntries(guard_.data())[idx_]);
  valid_ = true;
  return Status::OK();
}

Status BtreeIterator::Next() {
  assert(valid_);
  ++idx_;
  return LoadCurrent();
}

Status BtreeIterator::NextRun(const BtreeKey& hi,
                              std::vector<BtreeEntry>* out) {
  out->clear();
  if (!valid_) return Status::OK();
  const LeafEntry* es = LeafEntries(guard_.data());
  while (idx_ < leaf_count_) {
    BtreeEntry e = ToEntry(es[idx_]);
    if (hi < e.key) {
      // Bound hit mid-leaf: stay on this entry so a later NextRun with a
      // wider bound (or Next()) resumes here.
      entry_ = e;
      return Status::OK();
    }
    out->push_back(e);
    ++idx_;
  }
  // Leaf drained: step to the next leaf (fetching it, exactly like the
  // per-entry path, which must load a leaf to learn its first key).
  return LoadCurrent();
}

Result<Btree> Btree::Build(BufferPool* pool, std::string name,
                           const std::vector<BtreeEntry>& sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (!(sorted[i - 1] < sorted[i])) {
      return Status::InvalidArgument(StrFormat(
          "Btree::Build input not strictly ascending at position %zu", i));
    }
  }
  DiskManager* disk = pool->disk();
  Btree tree(pool, disk->CreateSegment("index:" + name), std::move(name));

  // Node images are built in `node` and appended to the disk, once each,
  // as soon as they are final.
  std::vector<char> node(disk->page_size());

  // Level 0: fill leaves left to right, chaining them. The segment is
  // fresh and this is its only writer, so the leaves take page numbers
  // 0, 1, ... and each leaf's `prev` and `next` are known before it is
  // appended. An empty input still gets one (empty) leaf: the root.
  struct NodeRef {
    BtreeEntry first;
    PageNo page;
  };
  std::vector<NodeRef> level_nodes;
  {
    PageNo page = 0;
    size_t i = 0;
    do {
      const uint32_t n = static_cast<uint32_t>(
          std::min<size_t>(tree.leaf_capacity_, sorted.size() - i));
      const bool last = i + n == sorted.size();
      ResetNode(&node, /*is_leaf=*/true, 0, n,
                page == 0 ? kInvalidPageNo : page - 1);
      Header(node.data())->next = last ? kInvalidPageNo : page + 1;
      LeafEntry* es = LeafEntries(node.data());
      for (uint32_t j = 0; j < n; ++j) {
        const BtreeEntry& e = sorted[i + j];
        es[j] = LeafEntry{e.key.k1, e.key.k2, e.aux};
      }
      DPCF_ASSIGN_OR_RETURN(const PageNo appended,
                            disk->AppendPage(tree.segment_, node.data()));
      assert(appended == page);
      (void)appended;
      level_nodes.push_back(
          NodeRef{n == 0 ? BtreeEntry{} : sorted[i], page});
      ++page;
      i += n;
    } while (i < sorted.size());
  }

  // Upper levels until a single root remains.
  uint16_t level = 1;
  while (level_nodes.size() > 1) {
    std::vector<NodeRef> next_nodes;
    size_t i = 0;
    while (i < level_nodes.size()) {
      uint32_t n = static_cast<uint32_t>(std::min<size_t>(
          tree.internal_capacity_, level_nodes.size() - i));
      // Avoid a trailing single-child node: borrow one from this node.
      if (level_nodes.size() - i - n == 1) n -= 1;
      ResetNode(&node, /*is_leaf=*/false, level, n, kInvalidPageNo);
      InternalEntry* es = InternalEntries(node.data());
      for (uint32_t j = 0; j < n; ++j) {
        const NodeRef& ref = level_nodes[i + j];
        es[j] = InternalEntry{ref.first.key.k1, ref.first.key.k2,
                              ref.first.aux, ref.page, 0};
      }
      DPCF_ASSIGN_OR_RETURN(const PageNo page,
                            disk->AppendPage(tree.segment_, node.data()));
      next_nodes.push_back(NodeRef{level_nodes[i].first, page});
      i += n;
    }
    level_nodes = std::move(next_nodes);
    ++level;
  }

  tree.root_ = level_nodes[0].page;
  tree.height_ = level;
  tree.entry_count_ = static_cast<int64_t>(sorted.size());
  return tree;
}

Status Btree::CollectRange(const BtreeKey& lo, const BtreeKey& hi,
                           std::vector<uint64_t>* out) {
  DPCF_ASSIGN_OR_RETURN(BtreeIterator it, SeekFirst(lo));
  while (it.Valid() && it.key() <= hi) {
    out->push_back(it.aux());
    DPCF_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

Status Btree::CheckNode(PageNo node, uint32_t level,
                        const std::optional<BtreeEntry>& lower,
                        const std::optional<BtreeEntry>& upper,
                        int64_t* entries_seen, PageNo* leftmost_leaf) const {
  auto guard_r = pool_->Fetch(PageId{segment_, node});
  if (!guard_r.ok()) return guard_r.status();
  PageGuard guard = std::move(guard_r).value();
  const char* page = guard.data();
  const NodeHeader* h = Header(page);
  const bool expect_leaf = (level == 0);
  if (static_cast<bool>(h->is_leaf) != expect_leaf) {
    return Status::Corruption(StrFormat("node %u: is_leaf=%u at level %u",
                                        node, h->is_leaf, level));
  }
  if (h->level != level) {
    return Status::Corruption(StrFormat("node %u: level %u, expected %u",
                                        node, h->level, level));
  }
  auto in_bounds = [&](const BtreeEntry& e) {
    if (lower.has_value() && e < *lower) return false;
    if (upper.has_value() && !(e < *upper)) return false;
    return true;
  };
  if (h->is_leaf) {
    if (level == 0 && leftmost_leaf != nullptr &&
        *leftmost_leaf == kInvalidPageNo) {
      *leftmost_leaf = node;
    }
    const LeafEntry* es = LeafEntries(page);
    for (uint32_t i = 0; i < h->count; ++i) {
      BtreeEntry e = ToEntry(es[i]);
      if (i > 0 && !(ToEntry(es[i - 1]) < e)) {
        return Status::Corruption(
            StrFormat("leaf %u: entries out of order at %u", node, i));
      }
      if (!in_bounds(e)) {
        return Status::Corruption(
            StrFormat("leaf %u: entry %u outside separator bounds", node, i));
      }
    }
    *entries_seen += h->count;
    return Status::OK();
  }
  const InternalEntry* es = InternalEntries(page);
  if (h->count == 0) {
    return Status::Corruption(StrFormat("internal node %u is empty", node));
  }
  for (uint32_t i = 0; i < h->count; ++i) {
    BtreeEntry sep = ToEntry(es[i]);
    if (i > 0 && !(ToEntry(es[i - 1]) < sep)) {
      return Status::Corruption(
          StrFormat("internal %u: separators out of order at %u", node, i));
    }
    // Child i covers [sep_i, sep_{i+1}). Slot 0's separator acts as -inf
    // (lookups clamp to the first child), so the leftmost child's lower
    // bound is the inherited one, not its separator.
    std::optional<BtreeEntry> child_lower =
        (i == 0) ? lower : std::optional<BtreeEntry>(sep);
    std::optional<BtreeEntry> child_upper =
        (i + 1 < h->count) ? std::optional<BtreeEntry>(ToEntry(es[i + 1]))
                           : upper;
    PageNo* lm = (leftmost_leaf != nullptr && i == 0) ? leftmost_leaf
                                                      : nullptr;
    DPCF_RETURN_IF_ERROR(CheckNode(es[i].child, level - 1, child_lower,
                                   child_upper, entries_seen, lm));
  }
  return Status::OK();
}

Status Btree::CheckInvariants() const {
  int64_t entries_seen = 0;
  PageNo leftmost_leaf = kInvalidPageNo;
  DPCF_RETURN_IF_ERROR(CheckNode(root_, height_ - 1, std::nullopt,
                                 std::nullopt, &entries_seen,
                                 &leftmost_leaf));
  if (entries_seen != entry_count_) {
    return Status::Corruption(
        StrFormat("entry count mismatch: tree reports %lld, found %lld",
                  static_cast<long long>(entry_count_),
                  static_cast<long long>(entries_seen)));
  }
  // Leaf chain: complete, ordered, consistent prev pointers.
  int64_t chain_entries = 0;
  std::optional<BtreeEntry> last;
  PageNo prev = kInvalidPageNo;
  PageNo cur = leftmost_leaf;
  while (cur != kInvalidPageNo) {
    auto guard = pool_->Fetch(PageId{segment_, cur});
    if (!guard.ok()) return guard.status();
    const char* page = guard->data();
    const NodeHeader* h = Header(page);
    if (!h->is_leaf) {
      return Status::Corruption(
          StrFormat("leaf chain reached internal node %u", cur));
    }
    if (h->prev != prev) {
      return Status::Corruption(
          StrFormat("leaf %u: prev=%u, expected %u", cur, h->prev, prev));
    }
    const LeafEntry* es = LeafEntries(page);
    for (uint32_t i = 0; i < h->count; ++i) {
      BtreeEntry e = ToEntry(es[i]);
      if (last.has_value() && !(*last < e)) {
        return Status::Corruption(
            StrFormat("leaf chain out of order at leaf %u entry %u", cur, i));
      }
      last = e;
    }
    chain_entries += h->count;
    prev = cur;
    cur = h->next;
  }
  if (chain_entries != entry_count_) {
    return Status::Corruption(StrFormat(
        "leaf chain holds %lld entries, tree reports %lld",
        static_cast<long long>(chain_entries),
        static_cast<long long>(entry_count_)));
  }
  return Status::OK();
}

}  // namespace dpcf
