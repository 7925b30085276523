// Byte-budgeted LRU cache over TargetIds. Used in three places:
//   * the dispatcher's per-node *virtual* caches — the front-end's model of
//     what each back-end currently caches (the paper's target->node mappings,
//     generalized to sets with eviction),
//   * the simulator's per-back-end main-memory file cache,
//   * the prototype back-end's content cache (there with real bytes besides).
// Keeping one implementation ensures the front-end's model and the back-ends'
// reality evolve identically under the same update stream.
//
// Layout: each resident entry is one 16 B slot {size_bytes, id, prev, next}
// whose recency links are uint32 slot numbers (freed slots are reused through
// a free list), plus a power-of-two open-addressed index of slot numbers, a
// quarter to half full, that maps an id to its slot (linear probing,
// backward-shift deletion, so no tombstones): 24-32 B per resident entry and
// no heap node per entry. Slots live in pages of 256 (4 KB) that are
// allocated one at a time and never move: slot i is entry i % 256 of page
// i / 256, so growth copies no slot and never holds an old and a new slab at
// once. Once the pages and the index have grown to the working set, Touch,
// Insert and eviction allocate nothing. The storage follows the resident
// entries, not the id space: a cache that holds a few ids out of a large
// catalog stays small, which per-id arrays would not. Sizes are stored in 32
// bits, so an object of 4 GiB or more is never cached.
#ifndef SRC_CORE_LRU_CACHE_H_
#define SRC_CORE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/trace/trace.h"

namespace lard {

class LruCache {
 public:
  static constexpr uint64_t kMaxObjectBytes = 0xffffffffu;

  explicit LruCache(uint64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}
  // A copy owns copies of the pages.
  LruCache(const LruCache& other);
  LruCache& operator=(const LruCache& other) { return *this = LruCache(other); }
  LruCache(LruCache&&) noexcept = default;
  LruCache& operator=(LruCache&&) noexcept = default;

  bool Contains(TargetId id) const { return FindPos(id) != kNoPos; }

  // Moves `id` to most-recently-used. Returns false (and does nothing) when
  // the entry is absent.
  bool Touch(TargetId id);

  // Inserts (or refreshes) `id` with `size_bytes`, evicting least-recently
  // used entries as needed. Evicted ids are appended to *evicted when
  // non-null. An object larger than the whole capacity, or larger than
  // kMaxObjectBytes, is not cached and evicts nothing. Returns true when the
  // object is resident afterwards.
  bool Insert(TargetId id, uint64_t size_bytes, std::vector<TargetId>* evicted = nullptr);

  // Drops every entry and releases the storage (node removal evicts the
  // whole virtual cache).
  void Clear();

  uint64_t used_bytes() const { return used_bytes_; }
  size_t entry_count() const { return entry_count_; }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;
  static constexpr size_t kNoPos = ~size_t{0};

  struct Slot {
    uint32_t size_bytes;
    TargetId id;
    uint32_t prev;  // towards most recently used; kNone at the head
    uint32_t next;  // towards least recently used; kNone at the tail
  };
  static_assert(sizeof(Slot) == 16, "the per-entry cost the layout is sized for");
  static constexpr unsigned kPageShift = 8;
  static constexpr uint32_t kPageSlots = 1u << kPageShift;  // 4 KB per page
  static constexpr uint32_t kPageMask = kPageSlots - 1;

  Slot& At(uint32_t slot) { return pages_[slot >> kPageShift][slot & kPageMask]; }
  const Slot& At(uint32_t slot) const { return pages_[slot >> kPageShift][slot & kPageMask]; }

  // Home position of `id` in an index of 2^(64 - shift_) positions.
  size_t Home(TargetId id) const {
    return static_cast<size_t>((static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  // Index position holding `id`, or kNoPos.
  size_t FindPos(TargetId id) const;
  // Adds `slot` to the index, which must have a free position.
  void IndexInsert(uint32_t slot);
  // Empties index position `pos`, shifting later members of its probe run back.
  void IndexErase(size_t pos);
  void GrowIndex();

  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);
  // Drops the entry at index position `pos` and returns its slot to the free list.
  void Remove(size_t pos);

  uint64_t capacity_bytes_ = 0;
  uint64_t used_bytes_ = 0;
  size_t entry_count_ = 0;
  // Pages of kPageSlots slots; slots [0, slot_count_) have been handed out
  // since the last Clear().
  std::vector<std::unique_ptr<Slot[]>> pages_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> index_;  // slot numbers; kNone marks an empty position
  unsigned shift_ = 64;
  uint32_t head_ = kNone;  // most recently used
  uint32_t tail_ = kNone;  // least recently used: the next victim
  uint32_t free_ = kNone;  // freed slots, chained through `next`
};

}  // namespace lard

#endif  // SRC_CORE_LRU_CACHE_H_
