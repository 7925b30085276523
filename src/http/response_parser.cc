#include "src/http/response_parser.h"

#include <algorithm>
#include <cstdlib>

namespace lard {
namespace {

constexpr std::string_view kHeadEnd = "\r\n\r\n";

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Whole-response mode's sink: collects each body into the response.
class Collector final : public ResponseParser::Sink {
 public:
  Collector(HttpResponse* partial, std::vector<HttpResponse>* out)
      : partial_(partial), out_(out) {}

  void OnHead(HttpResponse head, uint64_t) override { *partial_ = std::move(head); }
  void OnBody(std::string_view bytes) override { partial_->body.append(bytes); }
  void OnEnd() override {
    out_->push_back(std::move(*partial_));
    *partial_ = HttpResponse{};
  }

 private:
  HttpResponse* partial_;
  std::vector<HttpResponse>* out_;
};

}  // namespace

size_t ResponseParser::ParseHead(std::string_view data, HttpResponse* head,
                                 uint64_t* content_length) {
  const size_t limit = kMaxHeaderBytes + kHeadEnd.size();
  const size_t header_end = data.substr(0, limit).find(kHeadEnd);
  if (header_end == std::string_view::npos) {
    return data.size() >= limit ? kBadHead : 0;
  }
  const std::string_view lines = data.substr(0, header_end);
  const size_t line_end = lines.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? lines : lines.substr(0, line_end);

  // "HTTP/1.1 200 OK"
  *head = HttpResponse{};
  if (status_line.rfind("HTTP/1.1 ", 0) == 0) {
    head->version = HttpVersion::kHttp11;
  } else if (status_line.rfind("HTTP/1.0 ", 0) == 0) {
    head->version = HttpVersion::kHttp10;
  } else {
    return kBadHead;
  }
  if (status_line.size() < 12) {
    return kBadHead;
  }
  // The digits must outlive strtol's end pointer (a temporary here would be
  // dead by the time *end is checked).
  const std::string status_digits(status_line.substr(9, 3));
  char* end = nullptr;
  const long status = std::strtol(status_digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || status < 100 || status > 599) {
    return kBadHead;
  }
  head->status = static_cast<int>(status);
  if (status_line.size() > 13) {
    head->reason = std::string(status_line.substr(13));
  }

  size_t pos = line_end == std::string_view::npos ? lines.size() : line_end + 2;
  while (pos < lines.size()) {
    size_t eol = lines.find("\r\n", pos);
    if (eol == std::string_view::npos) {
      eol = lines.size();
    }
    const std::string_view line = lines.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return kBadHead;
    }
    head->headers.Add(std::string(Trim(line.substr(0, colon))),
                      std::string(Trim(line.substr(colon + 1))));
    pos = eol + 2;
  }

  *content_length = 0;
  if (const std::string* length = head->headers.Find("Content-Length")) {
    const long long v = std::strtoll(length->c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return kBadHead;
    }
    *content_length = static_cast<uint64_t>(v);
  }
  return header_end + kHeadEnd.size();
}

ResponseParser::State ResponseParser::Stream(std::string_view data, Sink* sink) {
  while (!error_ && !data.empty()) {
    if (body_left_ > 0) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(body_left_, data.size()));
      body_left_ -= n;
      const std::string_view run = data.substr(0, n);
      data.remove_prefix(n);
      sink->OnBody(run);
      if (body_left_ == 0) {
        sink->OnEnd();
      }
      continue;
    }
    // A head: parsed in place, unless an earlier read left part of it held.
    HttpResponse head;
    uint64_t length = 0;
    size_t used = 0;  // bytes of `data` the head took
    if (buffer_.empty()) {
      used = ParseHead(data, &head, &length);
      if (used == 0) {
        buffer_.assign(data);
        return State::kNeedMore;
      }
    } else {
      const size_t held = buffer_.size();
      const size_t room = kMaxHeaderBytes + kHeadEnd.size() - held;
      buffer_.append(data.substr(0, room));
      const size_t parsed = ParseHead(buffer_, &head, &length);
      if (parsed == 0) {
        return State::kNeedMore;  // all of `data` fit below the limit
      }
      used = parsed == kBadHead ? kBadHead : parsed - held;
      std::string().swap(buffer_);
    }
    if (used == kBadHead) {
      error_ = true;
      break;
    }
    data.remove_prefix(used);
    body_left_ = length;
    sink->OnHead(std::move(head), length);
    if (length == 0) {
      sink->OnEnd();
    }
  }
  return error_ ? State::kError : State::kNeedMore;
}

ResponseParser::State ResponseParser::Feed(std::string_view data, std::vector<HttpResponse>* out) {
  Collector collector(&partial_, out);
  return Stream(data, &collector);
}

}  // namespace lard
