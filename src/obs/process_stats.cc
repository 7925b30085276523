#include "src/obs/process_stats.h"

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__linux__)
#include <dirent.h>
#include <fcntl.h>
#endif

#ifndef LARD_VERSION
#define LARD_VERSION "dev"
#endif

namespace lard {
namespace {

std::chrono::steady_clock::time_point ProcessStart() {
  // Anchored at the first telemetry touch, not true exec time — close enough
  // for an uptime gauge and portable without parsing /proc/self/stat.
  static const std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  return start;
}

// Both readers use a raw fd and a stack buffer: opendir()'s DIR and fopen()'s
// FILE would each heap-allocate (32 KB and 4 KB) on every telemetry tick.
double ReadRssBytes() {
#if defined(__linux__)
  const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return 0.0;
  }
  // "size resident shared text lib data dt\n": seven page counts.
  char buf[128];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) {
    return 0.0;
  }
  buf[n] = '\0';
  char* end = nullptr;
  (void)std::strtol(buf, &end, 10);  // total program size
  const char* rss_start = end;
  const long rss_pages = std::strtol(rss_start, &end, 10);
  if (end == rss_start) {
    return 0.0;
  }
  return static_cast<double>(rss_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

double CountOpenFds() {
#if defined(__linux__)
  const int fd = ::open("/proc/self/fd", O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return 0.0;
  }
  char buf[2048];
  double count = 0.0;
  ssize_t n = 0;
  while ((n = ::getdents64(fd, buf, sizeof(buf))) > 0) {
    for (ssize_t pos = 0; pos < n;) {
      const char* entry = buf + pos;
      if (entry[offsetof(struct dirent64, d_name)] != '.') {
        count += 1.0;  // includes the counting fd itself; off-by-one is fine
      }
      uint16_t reclen = 0;
      std::memcpy(&reclen, entry + offsetof(struct dirent64, d_reclen), sizeof(reclen));
      pos += reclen;
    }
  }
  ::close(fd);
  return count;
#else
  return 0.0;
#endif
}

}  // namespace

const char* BuildCompiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* BuildSanitizer() {
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#else
  return "none";
#endif
}

ProcessStats ReadProcessStats() {
  ProcessStats stats;
  stats.rss_bytes = ReadRssBytes();
  stats.open_fds = CountOpenFds();
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - ProcessStart()).count();
  return stats;
}

ProcessMetrics::ProcessMetrics(MetricsRegistry* registry)
    : uptime_seconds_(registry->Gauge("lard_process_uptime_seconds")),
      rss_bytes_(registry->Gauge("lard_process_rss_bytes")),
      open_fds_(registry->Gauge("lard_process_open_fds")) {
  registry
      ->Gauge(std::string("lard_build_info{version=\"") + LARD_VERSION + "\",compiler=\"" +
              BuildCompiler() + "\",sanitizer=\"" + BuildSanitizer() + "\"}")
      ->Set(1.0);
}

void ProcessMetrics::Publish(const ProcessStats& stats) {
  uptime_seconds_->Set(stats.uptime_seconds);
  rss_bytes_->Set(stats.rss_bytes);
  open_fds_->Set(stats.open_fds);
}

}  // namespace lard
