#include "src/trace/trace.h"

#include <functional>

namespace lard {

size_t TargetCatalog::Probe(const std::string& path) const {
  const size_t mask = index_.size() - 1;
  size_t pos = std::hash<std::string>{}(path) & mask;
  while (index_[pos] != kInvalidTarget && targets_[index_[pos]].path != path) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

TargetId TargetCatalog::Intern(const std::string& path, uint64_t size_bytes) {
  if ((targets_.size() + 1) * 2 > index_.size()) {
    // Double (8 positions first) and re-place every id.
    index_.assign(index_.empty() ? 8 : index_.size() * 2, kInvalidTarget);
    for (TargetId id = 0; id < targets_.size(); ++id) {
      index_[Probe(targets_[id].path)] = id;
    }
  }
  const size_t pos = Probe(path);
  if (index_[pos] != kInvalidTarget) {
    return index_[pos];
  }
  const TargetId id = static_cast<TargetId>(targets_.size());
  targets_.push_back(Target{path, size_bytes});
  index_[pos] = id;
  return id;
}

TargetId TargetCatalog::Find(const std::string& path) const {
  return index_.empty() ? kInvalidTarget : index_[Probe(path)];
}

uint64_t TargetCatalog::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& target : targets_) {
    total += target.size_bytes;
  }
  return total;
}

size_t Trace::total_requests() const {
  size_t n = 0;
  for (const auto& session : sessions_) {
    n += session.total_requests();
  }
  return n;
}

double Trace::mean_requests_per_session() const {
  return sessions_.empty()
             ? 0.0
             : static_cast<double>(total_requests()) / static_cast<double>(sessions_.size());
}

Trace Trace::ToHttp10() const {
  Trace out;
  out.catalog_ = catalog_;
  for (const auto& session : sessions_) {
    for (const auto& batch : session.batches) {
      for (const TargetId id : batch.targets) {
        TraceSession single;
        single.client_id = session.client_id;
        single.start_us = session.start_us + batch.offset_us;
        single.batches.push_back(TraceBatch{0, {id}});
        out.sessions_.push_back(std::move(single));
      }
    }
  }
  return out;
}

}  // namespace lard
