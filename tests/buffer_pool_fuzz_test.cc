// Buffer-pool model check: a random access pattern against a reference LRU
// simulation must produce identical hit/miss behaviour — per shard, for 1,
// 2 and 8 shards (1 shard must match the historical monolithic pool move
// for move), on a small pool and on one whose page table churns through
// thousands of evictions, across a mid-run ColdReset — and random pin/unpin
// interleavings must never corrupt accounting.

#include <cstring>
#include <list>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace dpcf {
namespace {

/// Reference model: plain LRU over page numbers (no pinning).
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  // Returns true on hit.
  bool Touch(PageNo p) {
    auto it = pos_.find(p);
    if (it != pos_.end()) {
      order_.erase(it->second);
      order_.push_front(p);
      pos_[p] = order_.begin();
      return true;
    }
    if (order_.size() == capacity_) {
      pos_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(p);
    pos_[p] = order_.begin();
    return false;
  }

 private:
  size_t capacity_;
  std::list<PageNo> order_;
  std::unordered_map<PageNo, std::list<PageNo>::iterator> pos_;
};

/// Params: (rng seed, shard count).
class BufferPoolFuzz
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {
 protected:
  int seed() const { return std::get<0>(GetParam()); }
  size_t shards() const { return std::get<1>(GetParam()); }
};

TEST_P(BufferPoolFuzz, MatchesReferenceLruWithoutPins) {
  // Capacity dimension: a small pool that is mostly hits, and a larger one
  // over many more pages whose page table churns (thousands of evictions,
  // i.e. deletions from the middle of probe runs, some of them wrapping).
  struct Geometry {
    size_t frames;
    PageNo pages;
  };
  for (const Geometry geo : {Geometry{8, 64}, Geometry{96, 1000}}) {
    SCOPED_TRACE(::testing::Message() << geo.frames << " frames over "
                                      << geo.pages << " pages");
    DiskManager disk(256);
    SegmentId seg = disk.CreateSegment("t");
    std::vector<char> image(256, 0);
    for (PageNo p = 0; p < geo.pages; ++p) {
      // Each page carries its own number, so a fetch that lands on the
      // wrong frame's bytes shows up as a mismatch, not just a wrong count.
      std::memcpy(image.data(), &p, sizeof(p));
      ASSERT_OK(disk.AppendPage(seg, image.data()).status());
    }
    BufferPool pool(&disk, geo.frames, BufferPoolOptions{shards()});
    ASSERT_EQ(pool.num_shards(), shards());
    // One reference LRU per shard, sized from the pool's own split, indexed
    // through the pool's own page-to-shard map: with 1 shard this is
    // exactly the historical monolithic model.
    std::vector<ReferenceLru> reference;
    auto fresh_reference = [&] {
      reference.clear();
      for (size_t s = 0; s < pool.num_shards(); ++s) {
        reference.emplace_back(pool.shard_capacity(s));
      }
    };
    fresh_reference();

    Rng rng(static_cast<uint64_t>(seed()) * 31 + 1);
    PageNo last = 0;
    for (int step = 0; step < 5000; ++step) {
      // Zipf-flavoured skew keeps hot pages hot.
      PageNo p = static_cast<PageNo>(rng.NextBounded(geo.pages));
      if (rng.NextBernoulli(0.5)) p %= 8;
      if (step == 2500) {
        // A reset must leave no slot or LRU link behind: afterwards the
        // pool behaves exactly like an empty reference again, starting
        // with a miss on the page fetched just before it.
        ASSERT_OK(pool.ColdReset());
        ASSERT_EQ(pool.cached_pages(), 0u);
        fresh_reference();
        p = last;
      }
      last = p;
      int64_t phys_before = disk.io_stats()->physical_reads();
      {
        auto g = pool.Fetch(PageId{seg, p});
        ASSERT_TRUE(g.ok());
        PageNo stamped = kInvalidPageNo;
        std::memcpy(&stamped, g->data(), sizeof(stamped));
        ASSERT_EQ(stamped, p) << "step " << step;
      }
      bool pool_hit = disk.io_stats()->physical_reads() == phys_before;
      bool model_hit = reference[pool.shard_index(PageId{seg, p})].Touch(p);
      ASSERT_EQ(pool_hit, model_hit) << "step " << step << " page " << p;
    }
    ASSERT_LE(pool.cached_pages(), pool.capacity());
  }
}

TEST_P(BufferPoolFuzz, RandomPinsNeverBreakAccounting) {
  DiskManager disk(256);
  SegmentId seg = disk.CreateSegment("t");
  testing::AppendZeroPages(&disk, seg, 32);
  BufferPool pool(&disk, 8, BufferPoolOptions{shards()});
  Rng rng(static_cast<uint64_t>(seed()) * 97 + 5);
  std::vector<PageGuard> pins;

  for (int step = 0; step < 3000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.55 || pins.empty()) {
      // Try a fetch; it may fail only when every frame of the page's
      // shard is pinned (with 8 shards over 8 frames that is a single
      // pin, so exhaustion is routine here — the invariant must hold
      // through it, and a failed fetch must charge nothing).
      auto g = pool.Fetch(
          PageId{seg, static_cast<PageNo>(rng.NextBounded(32))});
      if (g.ok()) {
        if (rng.NextBernoulli(0.5) && pins.size() < 7) {
          pins.push_back(std::move(g).value());
        }
      } else {
        ASSERT_EQ(g.status().code(), StatusCode::kResourceExhausted);
        ASSERT_GE(pins.size(), 1u);
      }
    } else {
      size_t victim = rng.NextBounded(pins.size());
      pins.erase(pins.begin() + static_cast<long>(victim));
    }
    const IoStats& io = *disk.io_stats();
    ASSERT_EQ(io.logical_reads, io.buffer_hits + io.physical_reads());
    ASSERT_LE(pool.cached_pages(), pool.capacity());
  }
  pins.clear();
  EXPECT_OK(pool.ColdReset());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShards, BufferPoolFuzz,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{8})));

}  // namespace
}  // namespace dpcf
