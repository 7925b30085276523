// HTTP/1.0 and HTTP/1.1 message types for the prototype cluster. The scope is
// what the paper's cluster needs: GET requests, static responses, keep-alive
// semantics, and pipelining — implemented for real, over real sockets.
#ifndef SRC_HTTP_HTTP_MESSAGE_H_
#define SRC_HTTP_HTTP_MESSAGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lard {

enum class HttpVersion { kHttp10, kHttp11 };

const char* HttpVersionString(HttpVersion version);

// Ordered header list with case-insensitive lookup (headers can repeat and
// order is visible on the wire, so a map is the wrong type).
class HttpHeaders {
 public:
  void Add(std::string name, std::string value);
  // Room for `count` headers, so a caller that knows the count grows the
  // list once.
  void Reserve(size_t count) { entries_.reserve(count); }
  // Returns the first value of `name` (case-insensitive) or nullptr.
  const std::string* Find(const std::string& name) const;
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  const std::vector<std::pair<std::string, std::string>>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  // Case-insensitive ASCII comparison, exposed for reuse.
  static bool NameEquals(const std::string& a, const std::string& b);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method;
  std::string path;
  HttpVersion version = HttpVersion::kHttp11;
  HttpHeaders headers;
  std::string body;

  // Whether the connection stays open after this request under the paper's
  // rules: HTTP/1.1 persists unless "Connection: close"; HTTP/1.0 does not
  // persist (the paper disregards HTTP/1.0 keep-alive extensions).
  bool KeepAlive() const;

  // Serializes back to wire form (request line + headers + body). Used by the
  // multiple-handoff hand-back path, which replays still-unserved requests to
  // the next back-end; Serialize-then-parse is identity for parsed requests.
  std::string Serialize() const;
};

struct HttpResponse {
  HttpVersion version = HttpVersion::kHttp11;
  int status = 200;
  std::string reason = "OK";
  HttpHeaders headers;
  std::string body;

  // Serializes status line + headers + body. Adds Content-Length when absent.
  std::string Serialize() const;
  // The head alone (status line, headers, blank line) for a body of
  // `body_size` bytes sent separately; Serialize() is SerializeHead + body.
  // Adds Content-Length: body_size when absent.
  std::string SerializeHead(uint64_t body_size) const;
};

// Canonical reason phrase for a status code ("OK", "Not Found", ...).
const char* ReasonPhrase(int status);

}  // namespace lard

#endif  // SRC_HTTP_HTTP_MESSAGE_H_
