#include "src/core/lru_cache.h"

namespace lard {

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
    if (slots_[slot].id == id) {
      return pos;
    }
  }
}

void LruCache::IndexInsert(uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t pos = Home(slots_[slot].id);
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
    const size_t home = Home(slots_[index_[next]].id);
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
  const Slot& entry = slots_[slot];
  if (entry.prev != kNone) {
    slots_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNone) {
    slots_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
}

void LruCache::PushFront(uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.prev = kNone;
  entry.next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = slot;
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
  if (size_bytes > capacity_bytes_) {
    return false;
  }
  while (used_bytes_ + size_bytes > capacity_bytes_ && tail_ != kNone) {
    const TargetId victim = slots_[tail_].id;
    if (evicted != nullptr) {
      evicted->push_back(victim);
    }
    Remove(FindPos(victim));
  }
  uint32_t slot = free_;
  if (slot != kNone) {
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].size_bytes = size_bytes;
  slots_[slot].id = id;
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
  used_bytes_ -= slots_[slot].size_bytes;
  slots_[slot].next = free_;
  free_ = slot;
  --entry_count_;
}

void LruCache::Clear() {
  slots_ = std::vector<Slot>();
  index_ = std::vector<uint32_t>();
  shift_ = 64;
  head_ = tail_ = free_ = kNone;
  entry_count_ = 0;
  used_bytes_ = 0;
}

}  // namespace lard
