#include "bench/request_cost/proc_stats.h"

#include <dirent.h>
#include <time.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace lard {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The numeric value following `key` in a /proc status file; 0 if absent.
uint64_t StatusField(const std::string& status, const std::string& key) {
  const size_t at = status.find(key);
  return at == std::string::npos ? 0 : std::strtoull(status.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

ProcSnapshot ReadProc(pid_t pid) {
  ProcSnapshot out;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) {
    return out;
  }
  while (const dirent* entry = ::readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid <= 0) {
      continue;
    }
    const std::string base = task_dir + "/" + entry->d_name + "/";
    TaskStats stats;
    stats.run_ns = std::strtoull(ReadFile(base + "schedstat").c_str(), nullptr, 10);
    // Fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15.
    const std::string stat = ReadFile(base + "stat");
    const size_t paren = stat.rfind(')');
    if (paren != std::string::npos) {
      std::istringstream fields(stat.substr(paren + 1));
      std::string field;
      for (int index = 3; fields >> field && index <= 15; ++index) {
        if (index == 14) {
          stats.user_ticks = std::strtoull(field.c_str(), nullptr, 10);
        } else if (index == 15) {
          stats.system_ticks = std::strtoull(field.c_str(), nullptr, 10);
        }
      }
    }
    const std::string status = ReadFile(base + "status");
    stats.ctx_switches = StatusField(status, "\nvoluntary_ctxt_switches:") +
                         StatusField(status, "\nnonvoluntary_ctxt_switches:");
    out[tid] = stats;
  }
  ::closedir(dir);
  return out;
}

uint64_t ReadPeakRssKb(pid_t pid) {
  return StatusField(ReadFile("/proc/" + std::to_string(pid) + "/status"), "\nVmHWM:");
}

int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace lard
