// Per-thread CPU, scheduling and memory readings of another process, taken
// from /proc so the measured server needs no instrumentation of its own.
#ifndef BENCH_REQUEST_COST_PROC_STATS_H_
#define BENCH_REQUEST_COST_PROC_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>

namespace lard {

struct TaskStats {
  uint64_t run_ns = 0;        // schedstat: time on a CPU
  uint64_t user_ticks = 0;    // stat: utime
  uint64_t system_ticks = 0;  // stat: stime
  uint64_t ctx_switches = 0;  // status: voluntary + nonvoluntary
};

// Every live thread of `pid`, by tid.
using ProcSnapshot = std::map<pid_t, TaskStats>;
ProcSnapshot ReadProc(pid_t pid);

// Sum of (after - before) over the tids both snapshots hold, restricted to
// tids for which `include(tid)` is true.
template <typename Pred>
TaskStats Delta(const ProcSnapshot& before, const ProcSnapshot& after, Pred include) {
  TaskStats sum;
  for (const auto& [tid, end] : after) {
    const auto start = before.find(tid);
    if (start == before.end() || !include(tid)) {
      continue;
    }
    sum.run_ns += end.run_ns - start->second.run_ns;
    sum.user_ticks += end.user_ticks - start->second.user_ticks;
    sum.system_ticks += end.system_ticks - start->second.system_ticks;
    sum.ctx_switches += end.ctx_switches - start->second.ctx_switches;
  }
  return sum;
}

// Peak resident set (VmHWM) of `pid` in KiB; 0 when unreadable.
uint64_t ReadPeakRssKb(pid_t pid);

// CPU time the calling thread has used.
int64_t ThreadCpuNs();

}  // namespace lard

#endif  // BENCH_REQUEST_COST_PROC_STATS_H_
