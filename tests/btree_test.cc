// B+-tree tests: every tree is built the one way the engine builds one —
// Btree::Build over sorted entries — and then only read: sorted drains,
// lower-bound seeks, composite-key ranges, duplicate keys spanning leaves,
// height, iterator I/O, rejected inputs, and a randomized check against a
// std::set. Parameterized across page sizes so both
// shallow and multi-level trees are exercised.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/btree.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

// n entries with keys 0, step, 2 * step, ...; entry i carries aux
// i * aux_step.
std::vector<BtreeEntry> Sequential(int64_t n, int64_t step = 1,
                                   uint64_t aux_step = 0) {
  std::vector<BtreeEntry> out;
  for (int64_t i = 0; i < n; ++i) {
    out.push_back({{i * step, 0}, static_cast<uint64_t>(i) * aux_step});
  }
  return out;
}

class BtreeTest : public ::testing::TestWithParam<size_t> {
 protected:
  BtreeTest() : disk_(GetParam()), pool_(&disk_, 256) {}

  // Btree::Build, with the structural invariants checked.
  Btree Load(const std::vector<BtreeEntry>& sorted) {
    auto built = Btree::Build(&pool_, "t", sorted);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    Btree tree = std::move(built).value();
    EXPECT_OK(tree.CheckInvariants());
    EXPECT_EQ(tree.entry_count(), static_cast<int64_t>(sorted.size()));
    return tree;
  }

  std::vector<BtreeEntry> Drain(Btree* tree) {
    std::vector<BtreeEntry> out;
    auto it = tree->Begin();
    EXPECT_TRUE(it.ok()) << it.status().ToString();
    while (it->Valid()) {
      out.push_back(it->entry());
      EXPECT_OK(it->Next());
    }
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_P(BtreeTest, EmptyTreeIteratesNothing) {
  Btree tree = Load({});
  EXPECT_EQ(tree.entry_count(), 0);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.page_count(), 1u) << "one empty root leaf";
  EXPECT_TRUE(Drain(&tree).empty());
}

TEST_P(BtreeTest, BuildWritesExactlyTheTreesPages) {
  // A one-leaf tree is its root; three leaves get one root above them.
  // No page beyond the tree's own, and the leaves come first.
  Btree one = Load(Sequential(1));
  EXPECT_EQ(one.page_count(), 1u);
  const int64_t n = 3 * static_cast<int64_t>(one.leaf_capacity());
  Btree three = Load(Sequential(n));
  EXPECT_EQ(three.height(), 2u);
  EXPECT_EQ(three.page_count(), 4u);
  ASSERT_OK_AND_ASSIGN(BtreeIterator it, three.Begin());
  EXPECT_EQ(it.leaf_page(), 0u);
}

TEST_P(BtreeTest, BuildDrainsSorted) {
  const std::vector<BtreeEntry> entries = Sequential(2000, 1, 10);
  Btree tree = Load(entries);
  EXPECT_EQ(Drain(&tree), entries);
}

TEST_P(BtreeTest, SeekFirstFindsLowerBound) {
  Btree tree = Load(Sequential(500, 2, 2));  // even keys 0..998
  for (int64_t probe : {-5, 0, 1, 2, 499, 500, 997, 998}) {
    auto it = tree.SeekFirst(BtreeKey{probe, INT64_MIN});
    ASSERT_TRUE(it.ok());
    ASSERT_TRUE(it->Valid()) << probe;
    const int64_t want = probe < 0 ? 0 : (probe + 1) / 2 * 2;
    EXPECT_EQ(it->key().k1, want) << probe;
    EXPECT_EQ(it->aux(), static_cast<uint64_t>(want)) << probe;
  }
  auto past = tree.SeekFirst(BtreeKey{999, INT64_MIN});
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->Valid());
}

TEST_P(BtreeTest, CollectRangeInclusive) {
  Btree tree = Load(Sequential(300, 1, 1));
  std::vector<uint64_t> out;
  ASSERT_OK(tree.CollectRange(BtreeKey::Min(100), BtreeKey::Max(199), &out));
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out.front(), 100u);
  EXPECT_EQ(out.back(), 199u);
}

TEST_P(BtreeTest, CompositeKeysOrderLexicographically) {
  std::vector<BtreeEntry> entries;
  for (int64_t a = 0; a < 20; ++a) {
    for (int64_t b = 0; b < 20; ++b) {
      entries.push_back({{a, b}, static_cast<uint64_t>(a * 100 + b)});
    }
  }
  Btree tree = Load(entries);
  // Range over a = 7, all b.
  std::vector<uint64_t> out;
  ASSERT_OK(tree.CollectRange(BtreeKey::Min(7), BtreeKey::Max(7), &out));
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out.front(), 700u);
  EXPECT_EQ(out.back(), 719u);
  // Composite sub-range (7, 5)..(7, 9).
  out.clear();
  ASSERT_OK(tree.CollectRange(BtreeKey{7, 5}, BtreeKey{7, 9}, &out));
  EXPECT_EQ(out, (std::vector<uint64_t>{705, 706, 707, 708, 709}));
}

TEST_P(BtreeTest, DuplicateKeySpansLeaves) {
  // 400 entries share key 42 (distinct aux, as distinct rids would), more
  // than one leaf holds at every page size; neighbours bracket them.
  std::vector<BtreeEntry> entries{{{41, 0}, 7}};
  for (uint64_t aux = 0; aux < 400; ++aux) entries.push_back({{42, 0}, aux});
  entries.push_back({{43, 0}, 7});
  Btree tree = Load(entries);
  ASSERT_LT(tree.leaf_capacity(), 400u);

  ASSERT_OK_AND_ASSIGN(BtreeIterator it, tree.SeekFirst(BtreeKey{42, 0}));
  std::set<PageNo> leaves;
  for (uint64_t aux = 0; aux < 400; ++aux) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), (BtreeKey{42, 0}));
    EXPECT_EQ(it.aux(), aux);
    leaves.insert(it.leaf_page());
    ASSERT_OK(it.Next());
  }
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().k1, 43);
  EXPECT_GE(leaves.size(), 2u);

  std::vector<uint64_t> out;
  ASSERT_OK(tree.CollectRange(BtreeKey::Min(42), BtreeKey::Max(42), &out));
  EXPECT_EQ(out.size(), 400u);
}

TEST_P(BtreeTest, HeightGrowsLogarithmically) {
  Btree tree = Load(Sequential(5000));
  // Sanity: capacity^height must cover the entries.
  double cap = tree.leaf_capacity();
  double internal = tree.internal_capacity();
  double reachable = cap;
  for (uint32_t l = 1; l < tree.height(); ++l) reachable *= internal;
  EXPECT_GE(reachable, 5000.0);
  EXPECT_LE(tree.height(), 7u);
}

TEST_P(BtreeTest, IteratorChargesBufferPoolIo) {
  Btree tree = Load(Sequential(3000));
  int64_t before = disk_.io_stats()->logical_reads;
  auto it = tree.Begin();
  ASSERT_TRUE(it.ok());
  while (it->Valid()) ASSERT_OK(it->Next());
  EXPECT_GT(disk_.io_stats()->logical_reads, before)
      << "tree traversal must go through the buffer pool";
}

TEST_P(BtreeTest, BuildRejectsUnsortedOrDuplicateInput) {
  std::vector<BtreeEntry> bad{{{2, 0}, 0}, {{1, 0}, 0}};
  EXPECT_EQ(Btree::Build(&pool_, "t", bad).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<BtreeEntry> dup{{{1, 0}, 0}, {{1, 0}, 0}};
  EXPECT_EQ(Btree::Build(&pool_, "t", dup).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(disk_.io_stats()->physical_writes, 0)
      << "a rejected input writes no page";
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BtreeTest,
                         ::testing::Values(256, 512, 4096),
                         [](const auto& pinfo) {
                           return "page" + std::to_string(pinfo.param);
                         });

// Random entry sets with many duplicate keys, checked against a std::set by
// a full drain and by lower-bound seeks at random probes (including below
// the minimum and past the maximum), each followed by a short walk that
// crosses leaf boundaries.
class BtreeRandomLoad : public ::testing::TestWithParam<int> {};

TEST_P(BtreeRandomLoad, MatchesReferenceSet) {
  DiskManager disk(512);
  BufferPool pool(&disk, 256);
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 3);
  std::set<BtreeEntry> model;
  const uint64_t n = 1 + rng.NextBounded(4000);
  for (uint64_t i = 0; i < n; ++i) {
    model.insert(BtreeEntry{{rng.NextInt(0, 300), 0}, rng.NextBounded(50)});
  }
  const std::vector<BtreeEntry> sorted(model.begin(), model.end());
  ASSERT_OK_AND_ASSIGN(Btree tree, Btree::Build(&pool, "t", sorted));
  ASSERT_OK(tree.CheckInvariants());
  EXPECT_EQ(tree.entry_count(), static_cast<int64_t>(sorted.size()));

  ASSERT_OK_AND_ASSIGN(BtreeIterator all, tree.Begin());
  for (const BtreeEntry& want : sorted) {
    ASSERT_TRUE(all.Valid());
    EXPECT_EQ(all.entry(), want);
    ASSERT_OK(all.Next());
  }
  EXPECT_FALSE(all.Valid());

  std::vector<int64_t> probes{INT64_MIN, -1, 301, INT64_MAX};
  for (int i = 0; i < 200; ++i) probes.push_back(rng.NextInt(-2, 302));
  for (int64_t p : probes) {
    const BtreeKey lo = BtreeKey::Min(p);
    ASSERT_OK_AND_ASSIGN(BtreeIterator it, tree.SeekFirst(lo));
    auto want = model.lower_bound(BtreeEntry{lo, 0});
    for (int step = 0; step < 40 && want != model.end(); ++step, ++want) {
      ASSERT_TRUE(it.Valid()) << "probe " << p << " step " << step;
      EXPECT_EQ(it.entry(), *want) << "probe " << p << " step " << step;
      ASSERT_OK(it.Next());
    }
    if (want == model.end()) {
      EXPECT_FALSE(it.Valid()) << "probe " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeRandomLoad, ::testing::Range(0, 6));

TEST(BtreeKeyTest, MinMaxBracketAllAuxValues) {
  EXPECT_LT(BtreeKey::Min(5), (BtreeKey{5, 0}));
  EXPECT_LT((BtreeKey{5, 0}), BtreeKey::Max(5));
  EXPECT_LT(BtreeKey::Max(5), BtreeKey::Min(6));
  EXPECT_EQ(BtreeKey({3, 0}).ToString(), "3");
  EXPECT_EQ((BtreeKey{3, 4}).ToString(), "(3,4)");
}

}  // namespace
}  // namespace dpcf
