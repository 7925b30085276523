// Deterministic synthetic content for the prototype back-ends (DESIGN.md §2:
// the substitution for the Rice servers' real document tree). Bodies are
// generated on demand from the target's path and size — no gigabytes on disk,
// yet every byte is reproducible, so the load generator can verify responses
// end-to-end.
//
// The serve path never builds a body: a body is its short owned prefix plus
// views of one static, read-only slab of the fill pattern (BodyParts), which
// a Connection sends without copying.
#ifndef SRC_PROTO_CONTENT_STORE_H_
#define SRC_PROTO_CONTENT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/trace/trace.h"

namespace lard {

// A body as the serve path sends it: owned leading bytes, then `fill_bytes`
// of the fill pattern read as views of static storage. A document's prefix is
// "<path>#<size>#"; a body that is not a document (error text, a relayed
// lateral body) is all prefix.
struct BodyParts {
  // Largest single view of the fill slab.
  static constexpr size_t kMaxView = 64 * 1024;

  std::string prefix;
  // kMaxView bytes of the slab at this body's rotation. Every fill run
  // starts here: the pattern's period (64) divides kMaxView.
  std::string_view fill;
  uint64_t fill_bytes = 0;

  // A body that is all owned bytes.
  static BodyParts Owned(std::string bytes) {
    BodyParts parts;
    parts.prefix = std::move(bytes);
    return parts;
  }

  uint64_t size() const { return prefix.size() + fill_bytes; }

  // Calls fn(std::string_view) for each fill view in order, each at most
  // kMaxView bytes. The views point at static storage.
  template <typename Fn>
  void ForEachFillView(Fn&& fn) const {
    for (uint64_t left = fill_bytes; left > 0;) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(left, kMaxView));
      fn(fill.substr(0, n));
      left -= n;
    }
  }

  // The body as one string (prefix + every fill view).
  std::string Materialize() const;
};

class ContentStore {
 public:
  // `catalog` must outlive the store; it defines the document tree.
  explicit ContentStore(const TargetCatalog* catalog);

  // Body bytes for `target`: "<path>#<size>#" followed by a deterministic
  // byte pattern, exactly Get(target).size_bytes long (a header longer than
  // the document is truncated).
  std::string BodyFor(TargetId target) const;
  // The same bytes as BodyFor, as prefix + slab views (nothing built).
  BodyParts PartsFor(TargetId target) const;

  // The one definition of a body's bytes for a path of the given size.
  static BodyParts ExpectedParts(const std::string& path, uint64_t size_bytes);

  // Resolves a path to a target id; kInvalidTarget when absent (-> 404).
  TargetId Resolve(const std::string& path) const { return catalog_->Find(path); }

  uint64_t SizeOf(TargetId target) const { return catalog_->Get(target).size_bytes; }
  const TargetCatalog& catalog() const { return *catalog_; }

 private:
  const TargetCatalog* catalog_;
};

}  // namespace lard

#endif  // SRC_PROTO_CONTENT_STORE_H_
