// Minimal leveled logging + CHECK macros. Thread-safe (one lock per line).
//
//   LARD_LOG(INFO) << "served " << n << " requests";
//   LARD_CHECK(fd >= 0) << "accept failed";
//
// Severity FATAL aborts the process after flushing the message.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace lard {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Messages below this severity are discarded. Default: kInfo, overridable at
// process startup with the LARD_LOG_LEVEL environment variable
// ("debug"/"info"/"warning"/"error") and at runtime on a live cluster via the
// admin API (POST /config log_level=<name>).
void SetMinLogSeverity(LogSeverity severity);
LogSeverity MinLogSeverity();

// Parses a severity name ("debug", "info", "warning"/"warn", "error",
// "fatal"; case-insensitive, surrounding whitespace ignored). Returns false
// on unknown names, leaving `severity` untouched.
bool ParseLogSeverity(const std::string& name, LogSeverity* severity);
// Canonical lowercase name ("info") for rendering the current level.
const char* LogSeverityName(LogSeverity severity);

// One in-flight log statement; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  const char* file_ = nullptr;
  int line_ = 0;
  std::ostringstream stream_;
};

// Swallows the streamed expression when a log statement is compiled out or
// below the minimum severity.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Lets CHECK macros appear in a ternary yet still accept streamed operands:
// operator& binds looser than << and converts the whole expression to void.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace lard

#define LARD_LOG_DEBUG ::lard::LogMessage(::lard::LogSeverity::kDebug, __FILE__, __LINE__).stream()
#define LARD_LOG_INFO ::lard::LogMessage(::lard::LogSeverity::kInfo, __FILE__, __LINE__).stream()
#define LARD_LOG_WARNING \
  ::lard::LogMessage(::lard::LogSeverity::kWarning, __FILE__, __LINE__).stream()
#define LARD_LOG_ERROR ::lard::LogMessage(::lard::LogSeverity::kError, __FILE__, __LINE__).stream()
#define LARD_LOG_FATAL ::lard::LogMessage(::lard::LogSeverity::kFatal, __FILE__, __LINE__).stream()

#define LARD_LOG(severity) LARD_LOG_##severity

// Aborts with a message when `cond` is false. Active in all build types:
// invariant violations in a systems library should never be silent. Streams:
//   LARD_CHECK(fd >= 0) << "accept failed on " << path;
#define LARD_CHECK(cond)              \
  (cond) ? static_cast<void>(0)       \
         : ::lard::LogMessageVoidify() & LARD_LOG(FATAL) << "CHECK failed: " #cond " "

#define LARD_CHECK_OK(expr)                                                            \
  do {                                                                                 \
    ::lard::Status lard_check_status_ = (expr);                                        \
    if (!lard_check_status_.ok()) {                                                    \
      LARD_LOG(FATAL) << "CHECK_OK failed: " << lard_check_status_.ToString() << " "; \
    }                                                                                  \
  } while (0)

#endif  // SRC_UTIL_LOGGING_H_
