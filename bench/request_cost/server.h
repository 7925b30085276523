// The measured server: one lard::Cluster (1 front end with one loop, 3 back
// ends, extLARD with back-end forwarding) in a child process forked before
// the load generator starts any thread, so the client's CPU and the server's
// never mix. The parent drives the child over two pipes with one-line
// commands; every reply is "key value" lines closed by "end".
#ifndef BENCH_REQUEST_COST_SERVER_H_
#define BENCH_REQUEST_COST_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bench/request_cost/workload.h"
#include "src/trace/trace.h"

namespace lard {

struct ServerOptions {
  const Workload* workload = nullptr;
  const TargetCatalog* catalog = nullptr;  // the workload's corpus
  bool traced = false;  // every connection traced into rings of this capacity
  size_t trace_ring_capacity = 0;
  // Timed construct + Start() cycles (each then stopped) before the final
  // start, whose times the start-up reply carries as setup_s.<i>.
  int setup_cycles = 0;
};

using Reply = std::map<std::string, double>;

class ServerChild {
 public:
  // Forks the child and waits until its cluster listens; null on failure.
  static std::unique_ptr<ServerChild> Start(const ServerOptions& options);
  // Kills and reaps a child that was not stopped.
  ~ServerChild();

  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  pid_t pid() const { return pid_; }
  // The front end's event-loop thread; the other threads but the child's
  // main thread are the back ends' loops.
  pid_t fe_tid() const { return static_cast<pid_t>(hello_.at("fe_tid")); }
  uint16_t port() const { return static_cast<uint16_t>(hello_.at("port")); }
  const Reply& hello() const { return hello_; }

  // "snapshot": cluster, front-end and dispatcher counters.
  // "mark": opens the trace window.
  // "spans <chrome_path>": per-span-kind reduction of the spans that started
  //   in the window, and the spans the rings lost from it; writes the
  //   Chrome trace.
  bool Query(const std::string& command, Reply* reply);
  // Stops the cluster and reaps the child; true when it exited cleanly.
  bool Stop();

 private:
  ServerChild() = default;
  bool ReadReply(Reply* reply, int timeout_ms);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;  // reply bytes read past the last full line
  Reply hello_;
};

}  // namespace lard

#endif  // BENCH_REQUEST_COST_SERVER_H_
