#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/core/lru_cache.h"
#include "src/util/rng.h"

namespace lard {
namespace {

TEST(LruCacheTest, InsertAndContains) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Insert(1, 40));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 40u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(100);
  cache.Insert(1, 40);
  cache.Insert(2, 40);
  std::vector<TargetId> evicted;
  cache.Insert(3, 40, &evicted);  // must evict 1 (oldest)
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(LruCacheTest, TouchPreventsEviction) {
  LruCache cache(100);
  cache.Insert(1, 40);
  cache.Insert(2, 40);
  EXPECT_TRUE(cache.Touch(1));  // 1 becomes MRU
  std::vector<TargetId> evicted;
  cache.Insert(3, 40, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(LruCacheTest, TouchMissingReturnsFalse) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Touch(9));
}

TEST(LruCacheTest, ReinsertRefreshesWithoutGrowth) {
  LruCache cache(100);
  cache.Insert(1, 40);
  cache.Insert(1, 40);
  EXPECT_EQ(cache.used_bytes(), 40u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, OversizedObjectNotCached) {
  LruCache cache(100);
  EXPECT_FALSE(cache.Insert(1, 200));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, OversizedDoesNotEvictOthers) {
  LruCache cache(100);
  cache.Insert(1, 50);
  EXPECT_FALSE(cache.Insert(2, 150));
  EXPECT_TRUE(cache.Contains(1));
}

TEST(LruCacheTest, MultipleEvictionsForLargeInsert) {
  LruCache cache(100);
  cache.Insert(1, 30);
  cache.Insert(2, 30);
  cache.Insert(3, 30);
  std::vector<TargetId> evicted;
  cache.Insert(4, 90, &evicted);
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.entry_count(), 1u);
}

// Sizes are stored in 32 bits: an object of 4 GiB or more is refused like
// one larger than the capacity, and evicts nothing.
TEST(LruCacheTest, FourGibObjectRefusedWithoutEvicting) {
  LruCache cache(16ull << 30);
  ASSERT_TRUE(cache.Insert(1, 100));
  std::vector<TargetId> evicted;
  EXPECT_FALSE(cache.Insert(2, 1ull << 32, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.entry_count(), 1u);
  // One byte less fits, and is accounted at its full size.
  EXPECT_TRUE(cache.Insert(3, LruCache::kMaxObjectBytes, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.used_bytes(), 100u + LruCache::kMaxObjectBytes);
}

TEST(LruCacheTest, ZeroSizeEntries) {
  LruCache cache(10);
  EXPECT_TRUE(cache.Insert(1, 0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

// Property test: under random operations the byte budget is never exceeded
// and bookkeeping stays consistent.
class LruPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruPropertyTest, InvariantsHoldUnderRandomOps) {
  const uint64_t capacity = GetParam();
  LruCache cache(capacity);
  Rng rng(capacity);
  uint64_t accounted = 0;
  std::unordered_map<TargetId, uint64_t> resident;

  for (int op = 0; op < 20000; ++op) {
    const TargetId id = static_cast<TargetId>(rng.NextBelow(64));
    const uint64_t size = rng.NextBelow(capacity / 2) + 1;
    switch (rng.NextBelow(3)) {
      case 0: {
        std::vector<TargetId> evicted;
        const bool inserted = cache.Insert(id, size, &evicted);
        for (const TargetId victim : evicted) {
          auto it = resident.find(victim);
          ASSERT_NE(it, resident.end());
          accounted -= it->second;
          resident.erase(it);
        }
        if (inserted && resident.find(id) == resident.end()) {
          resident[id] = size;
          accounted += size;
        }
        break;
      }
      case 1:
        cache.Touch(id);
        break;
      case 2:
        ASSERT_EQ(cache.Contains(id), resident.count(id) != 0);
        break;
    }
    ASSERT_LE(cache.used_bytes(), capacity);
    ASSERT_EQ(cache.entry_count(), resident.size());
    ASSERT_EQ(cache.used_bytes(), accounted);
    for (const auto& [key, value] : resident) {
      ASSERT_TRUE(cache.Contains(key));
    }
  }
}

// The list + hash-map LRU that LruCache's slab layout replaced, kept as the
// executable spec of its behaviour: same return values, same eviction order.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

  bool Contains(TargetId id) const { return index_.count(id) != 0; }

  bool Touch(TargetId id) {
    auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    return true;
  }

  bool Insert(TargetId id, uint64_t size_bytes, std::vector<TargetId>* evicted) {
    if (Touch(id)) {
      return true;
    }
    if (size_bytes > capacity_bytes_ || size_bytes > LruCache::kMaxObjectBytes) {
      return false;
    }
    while (used_bytes_ + size_bytes > capacity_bytes_ && !entries_.empty()) {
      const Entry& victim = entries_.back();
      evicted->push_back(victim.id);
      used_bytes_ -= victim.size_bytes;
      index_.erase(victim.id);
      entries_.pop_back();
    }
    entries_.push_front(Entry{id, size_bytes});
    index_.emplace(id, entries_.begin());
    used_bytes_ += size_bytes;
    return true;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    used_bytes_ = 0;
  }

  uint64_t used_bytes() const { return used_bytes_; }
  size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    TargetId id;
    uint64_t size_bytes;
  };
  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<TargetId, std::list<Entry>::iterator> index_;
};

// Drives LruCache and ReferenceLru with one random op stream over ids drawn
// from `ids`, object sizes in [0, max_size], and a Clear() about every
// `clear_every` ops, comparing every result after every op. At some point at
// least `min_peak_entries` must be resident at once.
void ExpectMatchesReference(uint64_t capacity, uint64_t max_size, const std::vector<TargetId>& ids,
                            int ops, uint64_t clear_every, uint64_t seed, size_t min_peak_entries) {
  LruCache cache(capacity);
  ReferenceLru reference(capacity);
  Rng rng(seed);
  size_t peak_entries = 0;
  std::vector<TargetId> evicted;
  std::vector<TargetId> reference_evicted;
  for (int op = 0; op < ops; ++op) {
    const TargetId id = ids[rng.NextBelow(ids.size())];
    const uint64_t roll = rng.NextBelow(100);
    if (rng.NextBelow(clear_every) == 0) {
      cache.Clear();
      reference.Clear();
    } else if (roll < 45) {
      const uint64_t size = rng.NextBelow(max_size + 1);
      evicted.clear();
      reference_evicted.clear();
      ASSERT_EQ(cache.Insert(id, size, &evicted), reference.Insert(id, size, &reference_evicted))
          << "op " << op;
      ASSERT_EQ(evicted, reference_evicted) << "op " << op;
    } else if (roll < 70) {
      ASSERT_EQ(cache.Touch(id), reference.Touch(id)) << "op " << op;
    } else {
      ASSERT_EQ(cache.Contains(id), reference.Contains(id)) << "op " << op;
    }
    ASSERT_EQ(cache.Contains(id), reference.Contains(id)) << "op " << op;
    ASSERT_EQ(cache.used_bytes(), reference.used_bytes()) << "op " << op;
    ASSERT_EQ(cache.entry_count(), reference.entry_count()) << "op " << op;
    ASSERT_LE(cache.used_bytes(), capacity);
    peak_entries = std::max(peak_entries, cache.entry_count());
  }
  EXPECT_GE(peak_entries, min_peak_entries);
}

std::vector<TargetId> DenseIds(TargetId count) {
  std::vector<TargetId> ids(count);
  for (TargetId id = 0; id < count; ++id) {
    ids[id] = id;
  }
  return ids;
}

// Random ids over the whole valid range, both ends included.
std::vector<TargetId> SparseIds(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<TargetId> ids = {0, kInvalidTarget - 1};
  while (ids.size() < count) {
    ids.push_back(static_cast<TargetId>(rng.NextBelow(kInvalidTarget)));
  }
  return ids;
}

TEST_P(LruPropertyTest, MatchesReferenceWithDenseIds) {
  const uint64_t capacity = GetParam();
  ExpectMatchesReference(capacity, capacity / 2, DenseIds(64), 100000, 20000, capacity, 1);
}

TEST_P(LruPropertyTest, MatchesReferenceWithSparseIds) {
  const uint64_t capacity = GetParam();
  ExpectMatchesReference(capacity, capacity / 2, SparseIds(256, capacity), 100000, 20000,
                         capacity + 1, 1);
}

// Thousands of small entries: the index doubles from 8 to 8192 positions or
// more, and the rare Clear() makes it grow again from nothing.
TEST_P(LruPropertyTest, MatchesReferenceAcrossIndexGrowth) {
  const uint64_t capacity = GetParam();
  ExpectMatchesReference(capacity * 64, capacity / 32, DenseIds(8192), 200000, 100000,
                         capacity + 2, 2049);
  ExpectMatchesReference(capacity * 64, capacity / 32, SparseIds(8192, capacity), 200000, 100000,
                         capacity + 3, 2049);
}

// About a thousand entries resident: slots span four 256-slot pages, evictions
// free slots on every page for later inserts to reuse, and each Clear()
// releases the pages before the cache grows across them again.
TEST_P(LruPropertyTest, MatchesReferenceAcrossPages) {
  const uint64_t capacity = GetParam();
  ExpectMatchesReference(capacity * 16, capacity / 32, DenseIds(2048), 200000, 40000, capacity + 4,
                         513);
  ExpectMatchesReference(capacity * 16, capacity / 32, SparseIds(2048, capacity + 5), 200000,
                         40000, capacity + 6, 513);
}

// Fills `cache` and `reference` with the same `count` entries of 1-4 bytes in
// a shuffled recency order.
void FillBoth(LruCache* cache, ReferenceLru* reference, TargetId count, uint64_t seed) {
  Rng rng(seed);
  std::vector<TargetId> evicted;
  for (TargetId id = 0; id < count; ++id) {
    const uint64_t size = rng.NextBelow(4) + 1;
    cache->Insert(id, size, &evicted);
    reference->Insert(id, size, &evicted);
  }
  for (int i = 0; i < 4 * static_cast<int>(count); ++i) {
    const TargetId id = static_cast<TargetId>(rng.NextBelow(count));
    cache->Touch(id);
    reference->Touch(id);
  }
}

// Every entry, in eviction order, by flushing a copy with one object the
// size of the whole `capacity`.
std::vector<TargetId> EvictionOrder(LruCache cache, ReferenceLru* reference, uint64_t capacity) {
  std::vector<TargetId> order;
  std::vector<TargetId> reference_order;
  cache.Insert(kInvalidTarget - 1, capacity, &order);
  reference->Insert(kInvalidTarget - 1, capacity, &reference_order);
  EXPECT_EQ(order, reference_order);
  return order;
}

// A copy owns its pages: whatever happens to the source afterwards, the copy
// keeps the entries and the recency order it was copied with.
TEST(LruCacheTest, CopyIsIndependentOfItsSource) {
  const uint64_t capacity = 1 << 20;
  LruCache source(capacity);
  ReferenceLru reference(capacity);
  FillBoth(&source, &reference, 700, 7);  // three pages
  const LruCache copy = source;
  ReferenceLru copy_reference = reference;

  // Touch, evict, refill and finally clear the source.
  Rng rng(8);
  std::vector<TargetId> evicted;
  for (int i = 0; i < 5000; ++i) {
    const TargetId id = static_cast<TargetId>(rng.NextBelow(1400));
    if (!source.Touch(id)) {
      source.Insert(id, capacity / 600, &evicted);
    }
  }
  ASSERT_FALSE(evicted.empty());
  source.Clear();
  ASSERT_EQ(source.entry_count(), 0u);

  EXPECT_EQ(copy.entry_count(), copy_reference.entry_count());
  EXPECT_EQ(copy.used_bytes(), copy_reference.used_bytes());
  for (TargetId id = 0; id < 1400; ++id) {
    ASSERT_EQ(copy.Contains(id), copy_reference.Contains(id)) << "id " << id;
  }
  EXPECT_EQ(EvictionOrder(copy, &copy_reference, capacity).size(), 700u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruPropertyTest, ::testing::Values(64, 1024, 65536));

}  // namespace
}  // namespace lard
