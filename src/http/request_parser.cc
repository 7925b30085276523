#include "src/http/request_parser.h"

#include <cstdint>
#include <cstdlib>

#include "src/util/capacity.h"

namespace lard {
namespace {

constexpr size_t kParseError = static_cast<size_t>(-1);

// Splits "GET /path HTTP/1.1" -> method/path/version. Returns false on any
// deviation.
bool ParseRequestLine(std::string_view line, HttpRequest* request) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return false;
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return false;
  }
  if (line.find(' ', sp2 + 1) != std::string_view::npos) {
    return false;
  }
  // No control bytes: the method and target reach verb and content lookups.
  for (const char c : line.substr(0, sp2)) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      return false;
    }
  }
  request->method = std::string(line.substr(0, sp1));
  request->path = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    request->version = HttpVersion::kHttp11;
  } else if (version == "HTTP/1.0") {
    request->version = HttpVersion::kHttp10;
  } else {
    return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

size_t RequestParser::ParseOne(std::string_view input, HttpRequest* request) {
  // Find the end of the header section.
  const size_t header_end = input.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return input.size() > kMaxHeaderBytes ? kParseError : 0;
  }
  if (header_end > kMaxHeaderBytes) {
    return kParseError;
  }

  const std::string_view head = input.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  *request = HttpRequest{};
  if (!ParseRequestLine(request_line, request)) {
    return kParseError;
  }

  // Header lines.
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) {
      eol = head.size();
    }
    const std::string_view line = head.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return kParseError;
    }
    request->headers.Add(std::string(Trim(line.substr(0, colon))),
                         std::string(Trim(line.substr(colon + 1))));
    pos = eol + 2;
  }

  // Body (GETs normally have none; honor Content-Length when present).
  size_t body_bytes = 0;
  if (const std::string* length = request->headers.Find("Content-Length")) {
    char* end = nullptr;
    const long long v = std::strtoll(length->c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0 || v > (1ll << 30)) {
      return kParseError;
    }
    body_bytes = static_cast<size_t>(v);
  }
  const size_t total = header_end + 4 + body_bytes;
  if (input.size() < total) {
    return 0;
  }
  request->body = std::string(input.substr(header_end + 4, body_bytes));
  return total;
}

RequestParser::State RequestParser::Feed(std::string_view data, std::vector<HttpRequest>* out) {
  if (error_) {
    return State::kError;
  }
  // With nothing buffered, `data` is parsed where it is and only an
  // incomplete remainder is copied.
  const bool in_place = buffer_.empty();
  if (!in_place) {
    ReserveRounded(&buffer_, buffer_.size() + data.size());
    buffer_.append(data.data(), data.size());
    data = buffer_;
  }
  // Parse at an advancing offset and drop the consumed prefix once, so a
  // read holding many pipelined requests costs linear time.
  size_t offset = 0;
  while (true) {
    HttpRequest request;
    const size_t consumed = ParseOne(data.substr(offset), &request);
    if (consumed == kParseError) {
      error_ = true;
      break;
    }
    if (consumed == 0) {
      break;
    }
    offset += consumed;
    out->push_back(std::move(request));
  }
  if (in_place) {
    ReserveRounded(&buffer_, data.size() - offset);
    buffer_.assign(data.data() + offset, data.size() - offset);
  } else {
    buffer_.erase(0, offset);
  }
  return error_ ? State::kError : State::kNeedMore;
}

}  // namespace lard
