// Workload representation shared by the simulator, the prototype load
// generator and the benches.
//
// A trace is a set of *sessions*. A session models one persistent (P-HTTP)
// client connection: an ordered list of *batches*, where a batch is a group
// of pipelined requests the client sends back-to-back (the paper: "Clients
// can pipeline all requests in a batch but have to wait for data from the
// server before requests in the next batch can be sent"). An HTTP/1.0
// workload is the degenerate view where every request is its own
// single-batch, single-request session.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/logging.h"

namespace lard {

using TargetId = uint32_t;
inline constexpr TargetId kInvalidTarget = 0xffffffffu;

// One Web document: URL path plus response body size. The paper's "target" is
// "a Web document specified by a URL and any applicable arguments".
struct Target {
  std::string path;
  uint64_t size_bytes = 0;
};

// Interned table of all targets in a workload. TargetIds are dense and stable
// (0..size()-1 in order of first Intern). Each path is stored once, in its
// Target: the path index is a power-of-two open-addressed table of ids, at
// most half full, probed linearly by std::hash of the path and compared
// against targets_[id].path, so it costs 8-16 B per target rather than a
// second copy of the path in a node-based map.
class TargetCatalog {
 public:
  // Returns the id for `path`, creating it (with `size_bytes`) if new. When
  // the path exists, the stored size wins (web logs occasionally disagree on
  // sizes; first occurrence is authoritative).
  TargetId Intern(const std::string& path, uint64_t size_bytes);

  // Returns the id for `path` or kInvalidTarget.
  TargetId Find(const std::string& path) const;

  const Target& Get(TargetId id) const {
    LARD_CHECK(id < targets_.size());
    return targets_[id];
  }

  size_t size() const { return targets_.size(); }

  // Sum of all target sizes: the workload's total footprint ("database size").
  uint64_t TotalBytes() const;

 private:
  // Index position of `path`'s id, or of the empty position where it would go.
  // The index must not be empty.
  size_t Probe(const std::string& path) const;

  std::vector<Target> targets_;
  std::vector<TargetId> index_;  // kInvalidTarget marks an empty position
};

// A group of pipelined requests. `offset_us` is the send time relative to the
// session start, as recorded in (or synthesized into) the trace; closed-loop
// replay uses it only as think time between batches.
struct TraceBatch {
  int64_t offset_us = 0;
  std::vector<TargetId> targets;
};

// One persistent connection worth of requests.
struct TraceSession {
  uint32_t client_id = 0;
  int64_t start_us = 0;
  std::vector<TraceBatch> batches;

  size_t total_requests() const {
    size_t n = 0;
    for (const auto& batch : batches) {
      n += batch.targets.size();
    }
    return n;
  }
};

// A full workload: catalog + sessions ordered by start time.
class Trace {
 public:
  TargetCatalog& catalog() { return catalog_; }
  const TargetCatalog& catalog() const { return catalog_; }

  std::vector<TraceSession>& sessions() { return sessions_; }
  const std::vector<TraceSession>& sessions() const { return sessions_; }

  size_t total_requests() const;
  double mean_requests_per_session() const;

  // Re-expresses the workload as HTTP/1.0: one connection per request, same
  // order. Session/batch structure is discarded; timestamps are inherited.
  Trace ToHttp10() const;

 private:
  TargetCatalog catalog_;
  std::vector<TraceSession> sessions_;
};

}  // namespace lard

#endif  // SRC_TRACE_TRACE_H_
