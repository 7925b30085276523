#include "bench/request_cost/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "bench/request_cost/proc_stats.h"

namespace lard {
namespace {

// A server that stops answering fails the request instead of hanging the run.
constexpr time_t kIoTimeoutS = 5;
constexpr size_t kMaxHeaderBytes = 16 * 1024;
constexpr size_t kReadBufferBytes = 64 * 1024;
// Sessions still waiting for a slot this long after the open-loop phase ended
// are shed rather than run, which bounds the phase's length.
constexpr int64_t kOpenLoopGraceNs = 5'000'000'000;

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval timeout{kIoTimeoutS, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
    } else if (n < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

void SleepUntil(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// Frames the responses arriving on one connection, in order.
class ResponseReader {
 public:
  explicit ResponseReader(int fd) : fd_(fd), buf_(kReadBufferBytes) {}

  // Reads the next response and checks it is `target`'s document. Returns ""
  // when it is, else what was wrong. The times are when the response's first
  // and last bytes were received.
  std::string Read(const Target& target, int64_t* first_byte_ns, int64_t* last_byte_ns) {
    if (begin_ == end_ && !Fill()) {
      return "connection closed before the response to " + target.path;
    }
    *first_byte_ns = recv_ns_;
    size_t header_end = std::string_view::npos;
    while ((header_end = Buffered().find("\r\n\r\n")) == std::string_view::npos) {
      if (end_ - begin_ > kMaxHeaderBytes) {
        return "oversized response header for " + target.path;
      }
      if (!Fill()) {
        return "connection closed in the response header for " + target.path;
      }
    }
    const std::string_view head = Buffered().substr(0, header_end);
    const int status = head.size() >= 12 && head.compare(0, 7, "HTTP/1.") == 0
                           ? std::atoi(std::string(head.substr(9, 3)).c_str())
                           : 0;
    uint64_t content_length = 0;
    bool has_length = false;
    for (size_t line = head.find("\r\n"); line != std::string_view::npos;
         line = head.find("\r\n", line + 2)) {
      const std::string_view rest = head.substr(line + 2);
      if (rest.size() > 15 && ::strncasecmp(rest.data(), "content-length:", 15) == 0) {
        content_length = std::strtoull(std::string(rest.substr(15, 24)).c_str(), nullptr, 10);
        has_length = true;
      }
    }
    begin_ += header_end + 4;
    if (!has_length) {
      return "response without Content-Length for " + target.path;
    }

    std::string prefix = target.path + "#" + std::to_string(target.size_bytes) + "#";
    prefix.resize(std::min<size_t>(prefix.size(), target.size_bytes));
    bool prefix_ok = true;
    uint64_t offset = 0;
    while (offset < content_length) {
      if (begin_ == end_ && !Fill()) {
        return "connection closed in the body of " + target.path;
      }
      const size_t n = static_cast<size_t>(std::min<uint64_t>(content_length - offset, end_ - begin_));
      if (offset < prefix.size()) {
        const size_t m = std::min<size_t>(n, prefix.size() - offset);
        prefix_ok = prefix_ok && std::memcmp(buf_.data() + begin_, prefix.data() + offset, m) == 0;
      }
      begin_ += n;
      offset += n;
    }
    *last_byte_ns = recv_ns_;
    if (status != 200) {
      return "status " + std::to_string(status) + " for " + target.path;
    }
    if (content_length != target.size_bytes) {
      return "length " + std::to_string(content_length) + " for " + target.path + " of size " +
             std::to_string(target.size_bytes);
    }
    if (!prefix_ok) {
      return "wrong body prefix for " + target.path;
    }
    return "";
  }

  // True when the server closes the connection with nothing more to say.
  bool AwaitClose() {
    if (begin_ != end_) {
      return false;
    }
    char byte = 0;
    ssize_t n = 0;
    do {
      n = ::recv(fd_, &byte, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

 private:
  std::string_view Buffered() const { return std::string_view(buf_.data() + begin_, end_ - begin_); }

  bool Fill() {
    if (begin_ == end_) {
      begin_ = end_ = 0;
    } else if (end_ == buf_.size()) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    ssize_t n = 0;
    do {
      n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      return false;
    }
    end_ += static_cast<size_t>(n);
    recv_ns_ = NowNs();
    return true;
  }

  int fd_;
  std::vector<char> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
  int64_t recv_ns_ = 0;  // when the buffered bytes arrived
};

double Median(std::vector<double>* values) {
  if (values->empty()) {
    return 0.0;
  }
  const auto middle = values->begin() + static_cast<std::ptrdiff_t>(values->size() / 2);
  std::nth_element(values->begin(), middle, values->end());
  return *middle;
}

template <typename T>
void Append(std::vector<T>* into, std::vector<T>* from) {
  into->insert(into->end(), std::make_move_iterator(from->begin()),
               std::make_move_iterator(from->end()));
}

// Runs fn(slot) for every slot, slot 0 on the calling thread, and merges the
// slots' results.
template <typename Fn>
PhaseResult RunSlots(Fn fn) {
  std::vector<PhaseResult> results(kSlots);
  const int64_t start_ns = NowNs();
  auto body = [&](int slot) {
    // Paced sessions wake within a microsecond of their due time instead of
    // the default 50 us timer slack, which would count as server latency.
    (void)::prctl(PR_SET_TIMERSLACK, 1);
    const int64_t cpu_start_ns = ThreadCpuNs();
    fn(slot, &results[static_cast<size_t>(slot)]);
    results[static_cast<size_t>(slot)].max_thread_cpu_share =
        static_cast<double>(ThreadCpuNs() - cpu_start_ns) /
        static_cast<double>(std::max<int64_t>(1, NowNs() - start_ns));
  };
  std::vector<std::thread> threads;
  for (int slot = 1; slot < kSlots; ++slot) {
    threads.emplace_back(body, slot);
  }
  body(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult merged;
  for (PhaseResult& result : results) {
    merged.Merge(std::move(result));
  }
  return merged;
}

}  // namespace

int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string BatchRequest(const TargetCatalog& catalog, const std::vector<TargetId>& targets,
                         bool http10, bool last) {
  std::string out;
  for (size_t i = 0; i < targets.size(); ++i) {
    out += "GET ";
    out += catalog.Get(targets[i]).path;
    if (http10) {
      out += " HTTP/1.0\r\n\r\n";
      continue;
    }
    out += " HTTP/1.1\r\nHost: cluster\r\n";
    if (last && i + 1 == targets.size()) {
      out += "Connection: close\r\n";
    }
    out += "\r\n";
  }
  return out;
}

void PhaseResult::Merge(PhaseResult other) {
  attempted += other.attempted;
  failed += other.failed;
  responses += other.responses;
  connect_errors += other.connect_errors;
  shed_sessions += other.shed_sessions;
  if (first_error.empty()) {
    first_error = std::move(other.first_error);
  }
  Append(&answered, &other.answered);
  Append(&slot_wait_ms, &other.slot_wait_ms);
  Append(&wakeups, &other.wakeups);
  Append(&connect_us, &other.connect_us);
  Append(&ttfb_us, &other.ttfb_us);
  Append(&spans, &other.spans);
  max_thread_cpu_share = std::max(max_thread_cpu_share, other.max_thread_cpu_share);
}

void LoadClient::RunSession(const TraceSession& session, int64_t due_ns, int slot,
                            bool record_spans, PhaseResult* out) const {
  const TargetCatalog& catalog = stream_->catalog();
  uint64_t unanswered = session.total_requests();
  out->attempted += unanswered;
  auto fail = [&](std::string why) {
    out->failed += std::max<uint64_t>(unanswered, 1);
    if (out->first_error.empty()) {
      out->first_error = std::move(why);
    }
  };

  const int64_t connect_start_ns = NowNs();
  const Socket socket(ConnectLoopback(port_));
  const int64_t connected_ns = NowNs();
  if (socket.fd() < 0) {
    ++out->connect_errors;
    fail(std::string("connect: ") + std::strerror(errno));
    return;
  }
  out->connect_us.push_back(static_cast<double>(connected_ns - connect_start_ns) / 1e3);
  if (record_spans) {
    out->spans.push_back({"client.connect", slot, connect_start_ns, connected_ns - connect_start_ns});
  }

  ResponseReader reader(socket.fd());
  for (size_t b = 0; b < session.batches.size(); ++b) {
    const std::vector<TargetId>& targets = session.batches[b].targets;
    const int64_t sent_ns = NowNs();
    if (!SendAll(socket.fd(), BatchRequest(catalog, targets, stream_->http10(),
                                           b + 1 == session.batches.size()))) {
      fail(std::string("send: ") + std::strerror(errno));
      return;
    }
    int64_t first_byte_ns = 0;
    int64_t last_byte_ns = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      int64_t response_first_ns = 0;
      std::string error = reader.Read(catalog.Get(targets[i]), &response_first_ns, &last_byte_ns);
      if (!error.empty()) {
        fail(std::move(error));
        return;
      }
      --unanswered;
      ++out->responses;
      if (i == 0) {
        first_byte_ns = response_first_ns;
      }
      out->answered.push_back({due_ns, last_byte_ns});
    }
    out->ttfb_us.push_back(static_cast<double>(first_byte_ns - sent_ns) / 1e3);
    if (record_spans) {
      out->spans.push_back({"client.send_to_first_byte", slot, sent_ns, first_byte_ns - sent_ns});
      out->spans.push_back(
          {"client.first_to_last_byte", slot, first_byte_ns, last_byte_ns - first_byte_ns});
    }
    due_ns = last_byte_ns;
  }
  // The last request asked for the close (HTTP/1.0 always does): waiting for
  // it also leaves TIME_WAIT on the server side, not on a client port.
  if (!reader.AwaitClose()) {
    fail("server kept the connection open after its last response");
  }
}

PhaseResult LoadClient::Sweep(int slots) {
  const std::vector<TraceSession>& sessions = stream_->sweep();
  std::atomic<size_t> next{0};
  return RunSlots([&](int slot, PhaseResult* out) {
    if (slot >= slots) {
      return;
    }
    for (size_t i = next++; i < sessions.size(); i = next++) {
      RunSession(sessions[i], NowNs(), slot, false, out);
    }
  });
}

PhaseResult LoadClient::OpenLoop(StreamId id, double session_rate, double seconds,
                                 bool record_spans) {
  const int64_t duration_ns = static_cast<int64_t>(seconds * 1e9);
  const std::vector<int64_t> arrivals =
      PoissonArrivals(session_rate, duration_ns, stream_->seed() * 1000 + static_cast<uint64_t>(id));
  // Per session start: (offset into the phase, sessions that had arrived and
  // were still waiting for a slot).
  std::vector<std::vector<std::pair<int64_t, double>>> backlog(kSlots);
  std::atomic<size_t> next{0};
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + duration_ns;
  PhaseResult result = RunSlots([&](int slot, PhaseResult* out) {
    for (size_t i = next++; i < arrivals.size(); i = next++) {
      const TraceSession& session = stream_->At(id, i);
      const int64_t due_ns = start_ns + arrivals[i];
      int64_t now_ns = NowNs();
      if (now_ns < due_ns) {
        SleepUntil(due_ns);
        now_ns = NowNs();
        out->wakeups.push_back({due_ns, now_ns});
        out->slot_wait_ms.push_back(0.0);
      } else {
        out->slot_wait_ms.push_back(static_cast<double>(now_ns - due_ns) / 1e6);
      }
      if (now_ns > end_ns + kOpenLoopGraceNs) {
        ++out->shed_sessions;
        continue;
      }
      const auto arrived =
          std::upper_bound(arrivals.begin(), arrivals.end(), now_ns - start_ns) - arrivals.begin();
      backlog[static_cast<size_t>(slot)].push_back(
          {now_ns - start_ns, std::max<double>(0.0, static_cast<double>(arrived) -
                                                        static_cast<double>(i) - 1.0)});
      RunSession(session, due_ns, slot, record_spans, out);
    }
  });
  result.start_ns = start_ns;
  result.end_ns = end_ns;
  std::vector<double> halves[2];
  for (const auto& samples : backlog) {
    for (const auto& [offset_ns, waiting] : samples) {
      halves[offset_ns < duration_ns / 2 ? 0 : 1].push_back(waiting);
    }
  }
  result.backlog_first_half = Median(&halves[0]);
  result.backlog_second_half = Median(&halves[1]);
  return result;
}

PhaseResult LoadClient::ClosedLoop(StreamId id, double seconds) {
  std::atomic<uint64_t> next{0};
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  PhaseResult result = RunSlots([&](int slot, PhaseResult* out) {
    while (NowNs() < end_ns) {
      RunSession(stream_->At(id, next++), NowNs(), slot, false, out);
    }
  });
  result.start_ns = start_ns;
  result.end_ns = end_ns;
  return result;
}

}  // namespace lard
