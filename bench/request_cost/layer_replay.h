// Single-threaded timings of the public functions a request crosses, fed with
// the run's own request stream: each says what one call costs without the
// sockets, loops and scheduling around it.
#ifndef BENCH_REQUEST_COST_LAYER_REPLAY_H_
#define BENCH_REQUEST_COST_LAYER_REPLAY_H_

#include <map>
#include <string>

#include "bench/request_cost/workload.h"

namespace lard {

// Metric name -> value (http.parse_ns_per_req, http.serialize_ns_per_kb,
// core.dispatch_ns_per_batch, core.lru_ns_per_op, content.body_ns_per_kb,
// proto.codec_ns_per_msg).
std::map<std::string, double> RunLayerReplay(const Workload& workload,
                                             const SessionStream& stream);

}  // namespace lard

#endif  // BENCH_REQUEST_COST_LAYER_REPLAY_H_
