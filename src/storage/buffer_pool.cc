#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

#include "common/string_util.h"
#include "obs/event_journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace_collector.h"

namespace dpcf {

PageGuard::PageGuard(BufferPool* pool, uint32_t shard, int32_t frame,
                     const char* data)
    : pool_(pool), shard_(shard), frame_(frame), data_(data) {}

PageGuard::PageGuard(PageGuard&& o) noexcept
    : pool_(o.pool_), shard_(o.shard_), frame_(o.frame_), data_(o.data_) {
  o.pool_ = nullptr;
  o.shard_ = 0;
  o.frame_ = -1;
  o.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    shard_ = o.shard_;
    frame_ = o.frame_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.shard_ = 0;
    o.frame_ = -1;
    o.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
    shard_ = 0;
    frame_ = -1;
    data_ = nullptr;
  }
}

size_t BufferPool::PickShardCount(size_t capacity, size_t requested) {
  // Auto default: one shard per 8 frames, capped at 8, so tiny pools (every
  // unit test with capacity <= 15) stay monolithic and large pools spread
  // contention. An explicit request is honored up to the capacity.
  size_t target = requested;
  if (target == 0) {
    constexpr size_t kFramesPerShard = 8;
    constexpr size_t kMaxAutoShards = 8;
    target = capacity / kFramesPerShard;
    if (target > kMaxAutoShards) target = kMaxAutoShards;
  }
  if (target > capacity) target = capacity;
  size_t shards = 1;
  while (shards * 2 <= target) shards *= 2;  // round down to a power of two
  return shards;
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages,
                       BufferPoolOptions options)
    : disk_(disk), capacity_pages_(capacity_pages) {
  assert(capacity_pages > 0);
  const size_t n = PickShardCount(capacity_pages, options.num_shards);
  shards_.reserve(n);
  const size_t base = capacity_pages / n;
  const size_t rem = capacity_pages % n;
  for (size_t si = 0; si < n; ++si) {
    auto shard = std::make_unique<Shard>(disk_);
    const size_t frames = base + (si < rem ? 1 : 0);
    MutexLock lock(&shard->mu);  // ctor-private; satisfies TSA, uncontended
    shard->frames.resize(frames);
    shard->free_frames.reserve(frames);
    for (size_t i = 0; i < frames; ++i) {
      shard->free_frames.push_back(static_cast<int32_t>(frames - 1 - i));
    }
    const size_t slots = std::bit_ceil(2 * frames);
    shard->slots.assign(slots, -1);
    shard->slot_bits = std::countr_zero(slots);
    shards_.push_back(std::move(shard));
  }
}

void BufferPool::AttachObservability(MetricsRegistry* registry,
                                     TraceCollector* trace,
                                     EventJournal* journal) {
  trace_ = trace;
  journal_ = journal;
  if (registry == nullptr) return;
  m_logical_reads_ = registry->GetCounter(
      "buffer_pool_logical_reads_total",
      "Successful page requests (hits + completed miss loads)");
  m_prefetch_hits_ = registry->GetCounter(
      "buffer_pool_prefetch_hits_total",
      "Demand fetches served from a readahead-loaded frame");
  // A miss hands out the disk's image without copying it, so a read with
  // no simulated latency takes well under a microsecond: the buckets start
  // at 1/16 us (and still top out at 2^19 us) so that quantiles resolve it.
  m_miss_read_us_ = registry->GetHistogram(
      "buffer_pool_miss_read_us",
      "Wall time of the disk read on a buffer-pool miss", 1.0 / 16, 2.0, 24);
  for (size_t si = 0; si < shards_.size(); ++si) {
    MetricLabels labels = {{"shard", StrFormat("%zu", si)}};
    Shard& sh = *shards_[si];
    sh.m_hits = registry->GetCounter("buffer_pool_hits_total",
                                     "Page requests served from the pool",
                                     labels);
    sh.m_misses = registry->GetCounter(
        "buffer_pool_misses_total", "Page requests that went to disk",
        labels);
    sh.m_loading_waits = registry->GetCounter(
        "buffer_pool_loading_waits_total",
        "Waits behind another fetcher's in-flight load", labels);
  }
}

namespace {

// Home slot of `pid` in a table of 2^bits slots: the hash's top bits, since
// its low bits picked the shard and so are the same for every page in it.
// bits >= 1 (a shard has at least one frame, so at least two slots).
size_t HomeSlot(PageId pid, int bits) {
  return static_cast<size_t>(static_cast<uint64_t>(PageIdHash{}(pid)) >>
                             (64 - bits));
}

}  // namespace

int32_t BufferPool::Shard::Find(PageId pid) const {
  const size_t mask = slots.size() - 1;
  for (size_t i = HomeSlot(pid, slot_bits);; i = (i + 1) & mask) {
    const int32_t f = slots[i];
    if (f < 0 || frames[static_cast<size_t>(f)].pid == pid) return f;
  }
}

void BufferPool::Shard::Insert(int32_t f) {
  const size_t mask = slots.size() - 1;
  size_t i = HomeSlot(frames[static_cast<size_t>(f)].pid, slot_bits);
  while (slots[i] >= 0) i = (i + 1) & mask;
  slots[i] = f;
  ++cached;
}

void BufferPool::Shard::Erase(PageId pid) {
  const size_t mask = slots.size() - 1;
  size_t hole = HomeSlot(pid, slot_bits);
  for (;; hole = (hole + 1) & mask) {
    assert(slots[hole] >= 0);  // `pid` is published, so its run reaches it
    if (frames[static_cast<size_t>(slots[hole])].pid == pid) break;
  }
  // Backward shift: walk the rest of the probe run and move back into the
  // hole every entry whose home slot does not lie in (hole, j] cyclically,
  // i.e. every entry the hole would otherwise cut off from its home.
  for (size_t j = (hole + 1) & mask; slots[j] >= 0; j = (j + 1) & mask) {
    const size_t home =
        HomeSlot(frames[static_cast<size_t>(slots[j])].pid, slot_bits);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = -1;
  --cached;
}

void BufferPool::Shard::LruPushFront(int32_t f) {
  Frame& fr = frames[static_cast<size_t>(f)];
  fr.lru_prev = -1;
  fr.lru_next = lru_head;
  if (lru_head >= 0) {
    frames[static_cast<size_t>(lru_head)].lru_prev = f;
  } else {
    lru_tail = f;
  }
  lru_head = f;
  fr.in_lru = true;
}

void BufferPool::Shard::LruRemove(int32_t f) {
  Frame& fr = frames[static_cast<size_t>(f)];
  if (fr.lru_prev >= 0) {
    frames[static_cast<size_t>(fr.lru_prev)].lru_next = fr.lru_next;
  } else {
    lru_head = fr.lru_next;
  }
  if (fr.lru_next >= 0) {
    frames[static_cast<size_t>(fr.lru_next)].lru_prev = fr.lru_prev;
  } else {
    lru_tail = fr.lru_prev;
  }
  fr.lru_prev = fr.lru_next = -1;
  fr.in_lru = false;
}

size_t BufferPool::shard_capacity(size_t s) const {
  MutexLock lock(&shards_[s]->mu);
  return shards_[s]->frames.size();
}

int32_t BufferPool::AcquireFrameLocked(Shard* s) {
  if (!s->free_frames.empty()) {
    int32_t f = s->free_frames.back();
    s->free_frames.pop_back();
    return f;
  }
  assert(s->lru_tail >= 0);
  const int32_t victim = s->lru_tail;
  s->LruRemove(victim);
  const PageId evicted = s->frames[static_cast<size_t>(victim)].pid;
  s->Erase(evicted);
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kEviction, evicted.page_no);
  }
  return victim;
}

Result<int32_t> BufferPool::LoadLocked(Shard* s, PageId pid, ReadClass cls) {
  // A frame must be claimable before the read is charged, but the victim
  // is evicted only once the read has succeeded: a read of a page that
  // does not exist throws no cached page out. The shard latch is held
  // throughout, so the frame checked for here is still there after the
  // read.
  if (s->free_frames.empty() && s->lru_tail < 0) {
    return Status::ResourceExhausted(
        "all frames of the page's buffer-pool shard are pinned");
  }
  // Shard latch, then disk latch: the declared order. The disk classifies
  // and charges the read and stamps its due time; no device time passes
  // here, so the latch is held for bookkeeping only.
  const Result<PageRead> read = disk_->ReadImage(pid, cls);
  if (!read.ok()) return read.status();
  const int32_t f = AcquireFrameLocked(s);
  Frame& fr = s->frames[static_cast<size_t>(f)];
  fr.pid = pid;
  fr.data = read->image;
  fr.due_us = read->due_us;
  fr.prefetched = cls == ReadClass::kPrefetch;
  s->Insert(f);
  if (fr.prefetched) {
    // Unpinned and most recently used: the window of prefetched but not yet
    // consumed pages survives until the scan cursor arrives (unless the
    // shard is under real pressure).
    fr.pin_count = 0;
    s->LruPushFront(f);
  } else {
    fr.pin_count = 1;  // the fetching thread's pin
  }
  return f;
}

Result<PageGuard> BufferPool::Fetch(PageId pid) {
  const uint32_t si = static_cast<uint32_t>(shard_index(pid));
  Shard& s = *shards_[si];
  IoStats* io = disk_->io_stats();
  s.mu.lock();
  const int32_t hit = s.Find(pid);
  if (hit >= 0) {
    Frame& fr = s.frames[static_cast<size_t>(hit)];
    if (fr.in_lru) s.LruRemove(hit);
    ++fr.pin_count;
    ++io->logical_reads;
    ++io->buffer_hits;
    if (fr.prefetched) {
      // First demand hit of a readahead-loaded frame: that prefetch paid
      // off. Count it once and clear the flag.
      fr.prefetched = false;
      ++io->prefetch_hits;
      if (m_prefetch_hits_ != nullptr) m_prefetch_hits_->Increment();
    }
    if (s.m_hits != nullptr) s.m_hits->Increment();
    if (m_logical_reads_ != nullptr) m_logical_reads_->Increment();
    // A read still on the device: another fetcher's, or readahead's. The
    // clock is read until a fetch sees the due time pass, never after.
    int64_t due_us = fr.due_us;
    int64_t now_us = 0;
    if (due_us != 0) {
      now_us = DiskManager::NowUs();
      if (now_us >= due_us) due_us = fr.due_us = 0;
    }
    PageGuard guard(this, si, hit, fr.data);
    s.mu.unlock();
    if (due_us != 0) {
      // Wait behind the load, pinned and off the latch. Counted and
      // journaled once per fetch.
      if (s.m_loading_waits != nullptr) s.m_loading_waits->Increment();
      DiskManager::WaitUntil(due_us);
      const int64_t waited_us = DiskManager::NowUs() - now_us;
      ++stalls_.loading_waits;
      stalls_.loading_wait_us += waited_us;
      if (journal_ != nullptr) {
        journal_->Record(JournalEvent::kLoadWait, pid.page_no,
                         static_cast<uint64_t>(waited_us));
      }
    }
    return guard;
  }
  const bool traced = trace_ != nullptr && trace_->enabled();
  const auto read_t0 = std::chrono::steady_clock::now();
  const int64_t span_begin = traced ? trace_->NowUs() : 0;
  const Result<int32_t> loaded = LoadLocked(&s, pid, ReadClass::kDemand);
  if (!loaded.ok()) {
    s.mu.unlock();
    return loaded.status();
  }
  // The physical read was charged inside ReadImage; charging logical here,
  // after the load succeeded, keeps logical == hits + physical exact even
  // when fetches fail (satisfying no-charge-on-failure).
  ++io->logical_reads;
  if (m_logical_reads_ != nullptr) m_logical_reads_->Increment();
  if (s.m_misses != nullptr) s.m_misses->Increment();
  const Frame& fr = s.frames[static_cast<size_t>(*loaded)];
  const int64_t due_us = fr.due_us;
  PageGuard guard(this, si, *loaded, fr.data);
  s.mu.unlock();
  // The device time of this fetch's own read, waited out off the latch;
  // concurrent fetchers of the page wait behind the same due time.
  DiskManager::WaitUntil(due_us);
  const double read_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - read_t0)
                             .count();
  // The fetching thread was blocked for the whole read: an I/O wait.
  ++stalls_.io_waits;
  stalls_.io_wait_us += static_cast<int64_t>(read_us);
  if (m_miss_read_us_ != nullptr) m_miss_read_us_->Observe(read_us);
  if (traced) {
    trace_->AddSpan("io", StrFormat("miss read %s", pid.ToString().c_str()),
                    span_begin);
  }
  return guard;
}

void BufferPool::PrefetchBatch(const std::vector<PageId>& pids) {
  // One shard latch at a time, never two. Each read is scheduled on the
  // device and its frame published before the next page is looked at; no
  // thread waits on any of them here.
  IoStats* io = disk_->io_stats();
  size_t scheduled = 0;
  for (PageId pid : pids) {
    Shard& s = *shards_[shard_index(pid)];
    MutexLock lock(&s.mu);
    if (s.Find(pid) >= 0) continue;
    const Result<int32_t> loaded = LoadLocked(&s, pid, ReadClass::kPrefetch);
    if (loaded.ok()) {
      ++scheduled;
    } else if (loaded.status().code() == StatusCode::kResourceExhausted) {
      // A full shard just means readahead is running too far ahead of
      // the consumers: skip the page (the scan reads it on demand) and
      // count it.
      ++io->prefetch_rejected;
    }
  }
  if (scheduled > 0 && trace_ != nullptr && trace_->enabled()) {
    trace_->AddInstant("io", StrFormat("prefetch batch n=%zu", scheduled));
  }
}

Status BufferPool::ColdReset() {
  // Pass 1: verify quiescence, one shard at a time in index order. A pin
  // appearing *after* its shard was checked would be a caller bug —
  // ColdReset's contract requires a quiescent pool, as before. A readahead
  // frame whose read is not yet due is unpinned and simply forgotten below.
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (const Frame& fr : shard->frames) {
      if (fr.pin_count > 0) {
        return Status::InvalidArgument(StrFormat(
            "ColdReset with pinned page %s", fr.pid.ToString().c_str()));
      }
    }
  }
  // Pass 2: clear, same order. Every frame ends free, in the constructor's
  // free-list order; nothing is allocated or freed, and nothing is written
  // (a frame only ever points at its page's disk image).
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    const size_t frames = shard->frames.size();
    shard->free_frames.clear();
    for (size_t i = 0; i < frames; ++i) {
      Frame& fr = shard->frames[i];
      fr.due_us = 0;
      fr.in_lru = false;
      fr.prefetched = false;
      fr.lru_prev = fr.lru_next = -1;
      shard->free_frames.push_back(static_cast<int32_t>(frames - 1 - i));
    }
    std::fill(shard->slots.begin(), shard->slots.end(), -1);
    shard->cached = 0;
    shard->lru_head = shard->lru_tail = -1;
  }
  disk_->ResetReadHead();
  return Status::OK();
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (auto& shard : shards_) {  // one latch at a time, index order
    MutexLock lock(&shard->mu);
    total += shard->cached;
  }
  return total;
}

void BufferPool::Unpin(uint32_t shard, int32_t frame) {
  Shard& s = *shards_[shard];
  MutexLock lock(&s.mu);
  Frame& fr = s.frames[static_cast<size_t>(frame)];
  assert(fr.pin_count > 0);
  if (--fr.pin_count == 0) s.LruPushFront(frame);
}

}  // namespace dpcf
