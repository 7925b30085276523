// Incremental HTTP response parser, used by the prototype's client load
// generator and by the lateral-fetch client on back-end nodes. Supports
// pipelined responses and Content-Length framing (the only framing our
// static-content servers emit).
//
// Two modes over one head parser. Streaming mode (Stream) hands back each
// response's head and then views of its body bytes as they are fed: a body
// is never assembled, and the parser holds at most one partial head. The
// whole-response mode (Feed) is a thin wrapper that collects each body into
// an HttpResponse.
#ifndef SRC_HTTP_RESPONSE_PARSER_H_
#define SRC_HTTP_RESPONSE_PARSER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/http_message.h"

namespace lard {

class ResponseParser {
 public:
  enum class State { kNeedMore, kError };

  // Streaming mode's receiver. For each response: OnHead once, OnBody for
  // each run of body bytes (a view of the fed data, valid only during the
  // call; never empty), then OnEnd. A zero-length body gets no OnBody.
  class Sink {
   public:
    virtual ~Sink() = default;
    virtual void OnHead(HttpResponse head, uint64_t content_length) = 0;
    virtual void OnBody(std::string_view bytes) = 0;
    virtual void OnEnd() = 0;
  };

  // Streaming mode: parses `data` at an advancing offset and reports each
  // response to `sink` as its bytes arrive.
  State Stream(std::string_view data, Sink* sink);

  // Whole-response mode: appends socket bytes; extracts complete responses
  // into *out. Do not mix with Stream on one parser.
  State Feed(std::string_view data, std::vector<HttpResponse>* out);

  // Bytes of an incomplete response held: a partial head, plus in
  // whole-response mode the body received so far.
  size_t buffered_bytes() const { return buffer_.size() + partial_.body.size(); }

  // The one definition of a response head on the wire: parses the status
  // line, headers and blank line at the start of `data` into *head (no
  // body) and its Content-Length (0 when absent) into *content_length.
  // Returns the head's length in bytes, 0 when `data` holds no complete
  // head yet, or kBadHead. A head longer than kMaxHeaderBytes is bad.
  static size_t ParseHead(std::string_view data, HttpResponse* head, uint64_t* content_length);

  static constexpr size_t kMaxHeaderBytes = 64 * 1024;
  static constexpr size_t kBadHead = static_cast<size_t>(-1);

 private:
  std::string buffer_;      // a head split across reads, never body bytes
  uint64_t body_left_ = 0;  // body bytes of the current response still due
  HttpResponse partial_;    // whole-response mode: the response being read
  bool error_ = false;
};

}  // namespace lard

#endif  // SRC_HTTP_RESPONSE_PARSER_H_
