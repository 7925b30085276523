// Incremental, pipelining-safe HTTP request parser.
//
// Bytes are fed as they arrive from the socket; complete requests are emitted
// in order. Multiple pipelined requests in one read() are handled, as are
// requests split across arbitrarily many reads — both happen constantly on a
// P-HTTP connection and in the handoff path (the first request may arrive
// glued to the next batch).
#ifndef SRC_HTTP_REQUEST_PARSER_H_
#define SRC_HTTP_REQUEST_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/http_message.h"

namespace lard {

class RequestParser {
 public:
  enum class State {
    kNeedMore,  // consumed everything so far, request incomplete
    kError,     // malformed input; connection should be failed with 400
  };

  // Extracts as many complete requests as possible from the buffered bytes
  // and `data` into *out (appended), and buffers the incomplete rest; with
  // nothing buffered, `data` is parsed in place. Returns kError on malformed
  // input (parsing stops at the offending request).
  State Feed(std::string_view data, std::vector<HttpRequest>* out);
  // A caller that reuses one `out` vector across reads releases it past this
  // many requests (8 KB), so one long pipelined burst does not pin its size.
  static constexpr size_t kKeepBatchRequests = 64;

  // Bytes buffered but not yet parsed into a complete request.
  size_t buffered_bytes() const { return buffer_.size(); }
  // The buffered bytes themselves (the partial tail of the stream). The
  // hand-back path ships these to the next back-end so no byte is lost.
  const std::string& buffered() const { return buffer_; }

  // Guard against absurd header sections (connection should be failed).
  static constexpr size_t kMaxHeaderBytes = 64 * 1024;

 private:
  // Tries to parse one complete request from the front of `input`; on
  // success fills *request and returns the number of bytes consumed;
  // returns 0 when more data is needed; returns SIZE_MAX on malformed input.
  static size_t ParseOne(std::string_view input, HttpRequest* request);

  std::string buffer_;
  bool error_ = false;
};

}  // namespace lard

#endif  // SRC_HTTP_REQUEST_PARSER_H_
