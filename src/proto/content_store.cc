#include "src/proto/content_store.h"

#include "src/util/logging.h"

namespace lard {
namespace {

// 64-byte repeating fill block; offset rotated by a path hash so different
// documents have different bytes.
constexpr char kFill[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";
constexpr size_t kPeriod = sizeof(kFill) - 1;
static_assert(BodyParts::kMaxView % kPeriod == 0, "fill views must all start in phase");

// kFill repeated over kMaxView + kPeriod bytes: a view of kMaxView bytes
// starting at any rotation fits. Compile-time data, shared read-only by every
// connection that sends a body.
struct Slab {
  char bytes[BodyParts::kMaxView + kPeriod];
};
constexpr Slab MakeSlab() {
  Slab slab{};
  for (size_t i = 0; i < sizeof(slab.bytes); ++i) {
    slab.bytes[i] = kFill[i % kPeriod];
  }
  return slab;
}
constexpr Slab kSlab = MakeSlab();

uint64_t PathHash(const std::string& path) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : path) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string BodyParts::Materialize() const {
  std::string body;
  body.reserve(size());
  body.append(prefix);
  ForEachFillView([&body](std::string_view view) { body.append(view); });
  return body;
}

ContentStore::ContentStore(const TargetCatalog* catalog) : catalog_(catalog) {
  LARD_CHECK(catalog_ != nullptr);
}

BodyParts ContentStore::ExpectedParts(const std::string& path, uint64_t size_bytes) {
  BodyParts parts;
  parts.prefix = path + "#" + std::to_string(size_bytes) + "#";
  if (parts.prefix.size() > size_bytes) {
    parts.prefix.resize(size_bytes);
  }
  // Byte i of the body (i >= prefix size) is kFill[(i + rot) % kPeriod].
  const uint64_t rot = PathHash(path) % kPeriod;
  const size_t start = static_cast<size_t>((parts.prefix.size() + rot) % kPeriod);
  parts.fill = std::string_view(kSlab.bytes + start, BodyParts::kMaxView);
  parts.fill_bytes = size_bytes - parts.prefix.size();
  return parts;
}

BodyParts ContentStore::PartsFor(TargetId target) const {
  const Target& entry = catalog_->Get(target);
  return ExpectedParts(entry.path, entry.size_bytes);
}

std::string ContentStore::BodyFor(TargetId target) const {
  return PartsFor(target).Materialize();
}

}  // namespace lard
