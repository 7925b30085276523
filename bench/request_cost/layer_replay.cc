#include "bench/request_cost/layer_replay.h"

#include <chrono>
#include <string>
#include <vector>

#include "bench/request_cost/client.h"
#include "src/core/dispatcher.h"
#include "src/core/lru_cache.h"
#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/proto/content_store.h"
#include "src/proto/control_protocol.h"
#include "src/util/logging.h"

namespace lard {
namespace {

constexpr double kMinSeconds = 0.5;
constexpr size_t kMinRequests = 20000;
// Serialized response bodies kept in memory at once.
constexpr uint64_t kMaxResponseBytes = 64ull * 1024 * 1024;
constexpr int kNodes = 3;

// Keeps timed results observable so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

// Calls fn(item) over `items`, round robin, for at least kMinSeconds; fn
// returns how many units the call processed. Returns ns per unit.
template <typename Item, typename Fn>
double NsPerUnit(const std::vector<Item>& items, Fn fn) {
  LARD_CHECK(!items.empty());
  const auto start = std::chrono::steady_clock::now();
  double units = 0.0;
  for (size_t i = 0;; ++i) {
    units += fn(items[i % items.size()]);
    if (i % 16 == 15) {
      const double elapsed_ns =
          std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed_ns >= kMinSeconds * 1e9) {
        return elapsed_ns / units;
      }
    }
  }
}

DispatcherConfig ReplayDispatcherConfig(const Workload& workload) {
  DispatcherConfig config;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.params.low_disk_queue_threshold = workload.low_disk_queue_threshold;
  config.num_nodes = kNodes;
  config.virtual_cache_bytes = workload.cache_bytes;
  return config;
}

std::vector<RequestDirective> LocalDirectives(const TargetCatalog& catalog,
                                              const std::vector<TargetId>& targets) {
  std::vector<RequestDirective> directives;
  for (const TargetId target : targets) {
    RequestDirective directive;
    directive.path = catalog.Get(target).path;
    directives.push_back(std::move(directive));
  }
  return directives;
}

}  // namespace

std::map<std::string, double> RunLayerReplay(const Workload& workload,
                                             const SessionStream& stream) {
  const TargetCatalog& catalog = stream.catalog();
  std::vector<TraceSession> sessions;
  size_t requests = 0;
  for (uint64_t i = 0; requests < kMinRequests; ++i) {
    sessions.push_back(stream.At(StreamId::kReplay, i));
    requests += sessions.back().total_requests();
  }
  std::vector<TargetId> targets;
  for (const TraceSession& session : sessions) {
    for (const TraceBatch& batch : session.batches) {
      targets.insert(targets.end(), batch.targets.begin(), batch.targets.end());
    }
  }
  std::map<std::string, double> out;

  // The request bytes exactly as the client sends them, one batch per Feed.
  std::vector<std::pair<std::string, size_t>> batches;
  for (const TraceSession& session : sessions) {
    for (size_t b = 0; b < session.batches.size(); ++b) {
      const std::vector<TargetId>& batch = session.batches[b].targets;
      batches.emplace_back(
          BatchRequest(catalog, batch, stream.http10(), b + 1 == session.batches.size()),
          batch.size());
    }
  }
  out["http.parse_ns_per_req"] = NsPerUnit(batches, [](const auto& batch) {
    RequestParser parser;
    std::vector<HttpRequest> parsed;
    LARD_CHECK(parser.Feed(batch.first, &parsed) == RequestParser::State::kNeedMore);
    LARD_CHECK(parsed.size() == batch.second);
    return static_cast<double>(parsed.size());
  });

  // Responses as the back end builds them.
  const ContentStore store(&catalog);
  std::vector<HttpResponse> responses;
  uint64_t response_bytes = 0;
  for (size_t i = 0; i < targets.size() && response_bytes < kMaxResponseBytes; ++i) {
    HttpResponse response;
    response.version = stream.http10() ? HttpVersion::kHttp10 : HttpVersion::kHttp11;
    response.headers.Add("Server", "lard-be0");
    response.headers.Add("Content-Type", "application/octet-stream");
    response.body = store.BodyFor(targets[i]);
    response_bytes += response.body.size();
    responses.push_back(std::move(response));
  }
  out["http.serialize_ns_per_kb"] = NsPerUnit(responses, [](const HttpResponse& response) {
    const std::string wire = response.Serialize();
    g_sink = g_sink + wire.size();
    return static_cast<double>(wire.size()) / 1024.0;
  });

  out["content.body_ns_per_kb"] = NsPerUnit(targets, [&store](TargetId target) {
    const std::string body = store.BodyFor(target);
    g_sink = g_sink + body.size();
    return static_cast<double>(body.size()) / 1024.0;
  });

  // Which node serves each request, from an untimed pass of the dispatcher:
  // those are the per-node streams the back-end caches see.
  const NullBackendStats no_disk_feedback;
  std::vector<std::pair<int, TargetId>> node_requests;
  {
    Dispatcher placement(ReplayDispatcherConfig(workload), &catalog, &no_disk_feedback);
    ConnId conn = 0;
    std::vector<std::vector<TargetId>> per_node(kNodes);
    for (const TraceSession& session : sessions) {
      placement.OnConnectionOpen(++conn);
      for (const TraceBatch& batch : session.batches) {
        const std::vector<Assignment> assignments = placement.OnBatch(conn, batch.targets);
        for (size_t i = 0; i < assignments.size(); ++i) {
          per_node[static_cast<size_t>(assignments[i].node)].push_back(batch.targets[i]);
        }
      }
      placement.OnConnectionClose(conn);
    }
    for (int node = 0; node < kNodes; ++node) {
      for (const TargetId target : per_node[static_cast<size_t>(node)]) {
        node_requests.emplace_back(node, target);
      }
    }
  }

  Dispatcher dispatcher(ReplayDispatcherConfig(workload), &catalog, &no_disk_feedback);
  ConnId next_conn = 0;
  out["core.dispatch_ns_per_batch"] =
      NsPerUnit(sessions, [&dispatcher, &next_conn](const TraceSession& session) {
        const ConnId conn = ++next_conn;
        dispatcher.OnConnectionOpen(conn);
        for (const TraceBatch& batch : session.batches) {
          g_sink = g_sink + dispatcher.OnBatch(conn, batch.targets).size();
        }
        dispatcher.OnConnectionClose(conn);
        return static_cast<double>(session.batches.size());
      });

  std::vector<LruCache> caches(kNodes, LruCache(workload.cache_bytes));
  out["core.lru_ns_per_op"] =
      NsPerUnit(node_requests, [&caches, &catalog](const std::pair<int, TargetId>& request) {
        LruCache& cache = caches[static_cast<size_t>(request.first)];
        if (cache.Touch(request.second)) {
          return 1.0;
        }
        cache.Insert(request.second, catalog.Get(request.second).size_bytes);
        return 2.0;
      });

  // The control messages one session causes: a handoff carrying the first
  // batch, then a consult and its assignments per later batch.
  std::vector<HandoffMsg> handoffs;
  std::vector<ConsultMsg> consults;
  std::vector<AssignmentsMsg> assignments;
  std::vector<std::pair<int, size_t>> messages;  // (kind, index)
  for (size_t s = 0; s < sessions.size(); ++s) {
    const TraceSession& session = sessions[s];
    HandoffMsg handoff;
    handoff.conn_id = s + 1;
    handoff.replay_protected = true;
    handoff.directives = LocalDirectives(catalog, session.batches[0].targets);
    messages.emplace_back(0, handoffs.size());
    handoffs.push_back(std::move(handoff));
    for (size_t b = 1; b < session.batches.size(); ++b) {
      ConsultMsg consult;
      consult.conn_id = s + 1;
      AssignmentsMsg reply;
      reply.conn_id = s + 1;
      reply.directives = LocalDirectives(catalog, session.batches[b].targets);
      for (const RequestDirective& directive : reply.directives) {
        consult.paths.push_back(directive.path);
      }
      messages.emplace_back(1, consults.size());
      consults.push_back(std::move(consult));
      messages.emplace_back(2, assignments.size());
      assignments.push_back(std::move(reply));
    }
  }
  out["proto.codec_ns_per_msg"] = NsPerUnit(messages, [&](const std::pair<int, size_t>& message) {
    bool decoded = false;
    if (message.first == 0) {
      HandoffMsg copy;
      decoded = DecodeHandoff(EncodeHandoff(handoffs[message.second]), &copy);
    } else if (message.first == 1) {
      ConsultMsg copy;
      decoded = DecodeConsult(EncodeConsult(consults[message.second]), &copy);
    } else {
      AssignmentsMsg copy;
      decoded = DecodeAssignments(EncodeAssignments(assignments[message.second]), &copy);
    }
    LARD_CHECK(decoded);
    return 1.0;
  });
  return out;
}

}  // namespace lard
