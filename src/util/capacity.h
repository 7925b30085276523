// Capacity rules for buffers whose length follows a request, a frame or a
// batch. glibc's per-thread cache parks freed chunks by size class, so a
// buffer allocated at each exact length leaves a chunk in every class it
// touched; one grown to powers of two touches a handful. A buffer reused
// across requests keeps its capacity only up to a bound.
#ifndef SRC_UTIL_CAPACITY_H_
#define SRC_UTIL_CAPACITY_H_

#include <cstddef>

namespace lard {

// Makes room for `n` elements in `*buffer` (a std::string or std::vector),
// growing one that is short to the next power of two at or above `n`.
template <typename Buffer>
void ReserveRounded(Buffer* buffer, size_t n) {
  if (n <= buffer->capacity()) {
    return;
  }
  size_t capacity = 1;
  while (capacity < n) {
    capacity <<= 1;
  }
  buffer->reserve(capacity);
}

// Empties `*buffer` for its next use and keeps its capacity, unless that is
// above `keep` elements: one outsized burst does not pin its size.
template <typename Buffer>
void ClearKeeping(Buffer* buffer, size_t keep) {
  buffer->clear();
  if (buffer->capacity() > keep) {
    Buffer().swap(*buffer);
  }
}

}  // namespace lard

#endif  // SRC_UTIL_CAPACITY_H_
