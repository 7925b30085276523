#include "src/core/lru_cache.h"

#include <algorithm>

namespace lard {

LruCache::LruCache(const LruCache& other)
    : capacity_bytes_(other.capacity_bytes_),
      used_bytes_(other.used_bytes_),
      entry_count_(other.entry_count_),
      slot_count_(other.slot_count_),
      index_(other.index_),
      shift_(other.shift_),
      head_(other.head_),
      tail_(other.tail_),
      free_(other.free_) {
  pages_.reserve(other.pages_.size());
  for (const auto& page : other.pages_) {
    pages_.push_back(std::make_unique<Slot[]>(kPageSlots));
    std::copy_n(page.get(), kPageSlots, pages_.back().get());
  }
}

size_t LruCache::FindPos(TargetId id) const {
  if (index_.empty()) {
    return kNoPos;
  }
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(id);; pos = (pos + 1) & mask) {
    const uint32_t slot = index_[pos];
    if (slot == kNone) {
      return kNoPos;
    }
    if (At(slot).id == id) {
      return pos;
    }
  }
}

void LruCache::IndexInsert(uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t pos = Home(At(slot).id);
  while (index_[pos] != kNone) {
    pos = (pos + 1) & mask;
  }
  index_[pos] = slot;
}

void LruCache::IndexErase(size_t pos) {
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; index_[next] != kNone; next = (next + 1) & mask) {
    // The member at `next` may fill the hole only when the hole lies on its
    // probe run, i.e. its home is no nearer to `next` than the hole is.
    const size_t home = Home(At(index_[next]).id);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNone;
}

void LruCache::GrowIndex() {
  std::vector<uint32_t> old = std::move(index_);
  shift_ = old.empty() ? 61 : shift_ - 1;  // 8 positions first, then doubling
  index_.assign(old.empty() ? 8 : old.size() * 2, kNone);
  for (const uint32_t slot : old) {
    if (slot != kNone) {
      IndexInsert(slot);
    }
  }
}

void LruCache::Unlink(uint32_t slot) {
  const Slot& entry = At(slot);
  if (entry.prev != kNone) {
    At(entry.prev).next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNone) {
    At(entry.next).prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
}

void LruCache::PushFront(uint32_t slot) {
  Slot& entry = At(slot);
  entry.prev = kNone;
  entry.next = head_;
  if (head_ != kNone) {
    At(head_).prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

bool LruCache::Touch(TargetId id) {
  const size_t pos = FindPos(id);
  if (pos == kNoPos) {
    return false;
  }
  const uint32_t slot = index_[pos];
  if (slot != head_) {
    Unlink(slot);
    PushFront(slot);
  }
  return true;
}

bool LruCache::Insert(TargetId id, uint64_t size_bytes, std::vector<TargetId>* evicted) {
  if (Touch(id)) {
    return true;
  }
  if (size_bytes > capacity_bytes_ || size_bytes > kMaxObjectBytes) {
    return false;
  }
  while (used_bytes_ + size_bytes > capacity_bytes_ && tail_ != kNone) {
    const TargetId victim = At(tail_).id;
    if (evicted != nullptr) {
      evicted->push_back(victim);
    }
    Remove(FindPos(victim));
  }
  uint32_t slot = free_;
  if (slot != kNone) {
    free_ = At(slot).next;
  } else {
    slot = slot_count_++;
    if ((slot >> kPageShift) == pages_.size()) {
      pages_.push_back(std::make_unique<Slot[]>(kPageSlots));
    }
  }
  Slot& entry = At(slot);
  entry.size_bytes = static_cast<uint32_t>(size_bytes);
  entry.id = id;
  PushFront(slot);
  if ((entry_count_ + 1) * 2 > index_.size()) {
    GrowIndex();
  }
  IndexInsert(slot);
  ++entry_count_;
  used_bytes_ += size_bytes;
  return true;
}

void LruCache::Remove(size_t pos) {
  const uint32_t slot = index_[pos];
  IndexErase(pos);
  Unlink(slot);
  Slot& entry = At(slot);
  used_bytes_ -= entry.size_bytes;
  entry.next = free_;
  free_ = slot;
  --entry_count_;
}

void LruCache::Clear() {
  pages_ = std::vector<std::unique_ptr<Slot[]>>();
  slot_count_ = 0;
  index_ = std::vector<uint32_t>();
  shift_ = 64;
  head_ = tail_ = free_ = kNone;
  entry_count_ = 0;
  used_bytes_ = 0;
}

}  // namespace lard
