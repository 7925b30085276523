#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/http/response_parser.h"
#include "src/http/tagging.h"

namespace lard {
namespace {

// --- HttpHeaders / messages ---

TEST(HttpHeadersTest, CaseInsensitiveLookup) {
  HttpHeaders headers;
  headers.Add("Content-Length", "42");
  ASSERT_NE(headers.Find("content-length"), nullptr);
  EXPECT_EQ(*headers.Find("CONTENT-LENGTH"), "42");
  EXPECT_EQ(headers.Find("Host"), nullptr);
}

TEST(HttpHeadersTest, PreservesOrderAndDuplicates) {
  HttpHeaders headers;
  headers.Add("X-A", "1");
  headers.Add("X-A", "2");
  EXPECT_EQ(headers.size(), 2u);
  EXPECT_EQ(*headers.Find("X-A"), "1");  // first wins for lookup
}

TEST(HttpRequestTest, KeepAliveRules) {
  HttpRequest request;
  request.version = HttpVersion::kHttp11;
  EXPECT_TRUE(request.KeepAlive());  // 1.1 default persistent
  request.headers.Add("Connection", "close");
  EXPECT_FALSE(request.KeepAlive());

  HttpRequest old_request;
  old_request.version = HttpVersion::kHttp10;
  EXPECT_FALSE(old_request.KeepAlive());  // paper: 1.0 never persists
  old_request.headers.Add("Connection", "keep-alive");
  EXPECT_FALSE(old_request.KeepAlive());
}

TEST(HttpResponseTest, SerializeAddsContentLength) {
  HttpResponse response;
  response.body = "hello";
  const std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(HttpResponseTest, SerializeKeepsExplicitContentLength) {
  HttpResponse response;
  response.headers.Add("Content-Length", "0");
  const std::string wire = response.Serialize();
  // Exactly one Content-Length.
  EXPECT_EQ(wire.find("Content-Length"), wire.rfind("Content-Length"));
}

TEST(HttpResponseTest, SerializeHeadPlusBodyIsSerialize) {
  std::vector<HttpResponse> cases(4);
  cases[0].version = HttpVersion::kHttp10;
  cases[0].status = 404;
  cases[0].reason = ReasonPhrase(404);
  cases[0].body = "not found\n";
  cases[1].headers.Add("Server", "lard-be2");
  cases[1].headers.Add("Content-Type", "application/octet-stream");
  cases[1].headers.Add("Connection", "close");
  cases[1].body = std::string(3000, 'x');
  cases[2].headers.Add("Content-Length", "0");  // explicit length wins
  // cases[3]: empty body, no headers.
  for (const HttpResponse& response : cases) {
    const std::string head = response.SerializeHead(response.body.size());
    EXPECT_EQ(head + response.body, response.Serialize());
    ASSERT_GE(head.size(), 4u);
    EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
    EXPECT_EQ(head.find("Content-Length"), head.rfind("Content-Length"));
  }
  // The head carries the length it is given, not the (unset) body's.
  HttpResponse bodiless;
  EXPECT_NE(bodiless.SerializeHead(1048583).find("Content-Length: 1048583\r\n"),
            std::string::npos);
}

// --- RequestParser ---

TEST(RequestParserTest, ParsesSimpleGet) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  ASSERT_EQ(parser.Feed("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n", &requests),
            RequestParser::State::kNeedMore);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].method, "GET");
  EXPECT_EQ(requests[0].path, "/index.html");
  EXPECT_EQ(requests[0].version, HttpVersion::kHttp11);
  EXPECT_EQ(*requests[0].headers.Find("Host"), "x");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(RequestParserTest, ByteAtATime) {
  const std::string wire = "GET /a HTTP/1.0\r\nUser-Agent: t\r\n\r\n";
  RequestParser parser;
  std::vector<HttpRequest> requests;
  for (const char c : wire) {
    ASSERT_EQ(parser.Feed(std::string_view(&c, 1), &requests), RequestParser::State::kNeedMore);
  }
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].version, HttpVersion::kHttp10);
}

TEST(RequestParserTest, PipelinedRequestsInOneRead) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  parser.Feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\nHost: h\r\n\r\n",
      &requests);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].path, "/a");
  EXPECT_EQ(requests[1].path, "/b");
  EXPECT_EQ(requests[2].path, "/c");
}

TEST(RequestParserTest, PipelinedSplitMidRequest) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  parser.Feed("GET /a HTTP/1.1\r\n\r\nGET /b HT", &requests);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_GT(parser.buffered_bytes(), 0u);
  parser.Feed("TP/1.1\r\n\r\n", &requests);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[1].path, "/b");
}

TEST(RequestParserTest, BodyWithContentLength) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  parser.Feed("POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next HTTP/1.1\r\n\r\n",
              &requests);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].body, "hello");
  EXPECT_EQ(requests[1].path, "/next");
}

// Everything a parse produced, as one comparable string.
std::string Describe(const std::vector<HttpRequest>& requests, const RequestParser& parser) {
  std::string out;
  for (const HttpRequest& request : requests) {
    out += request.method + " " + request.path + " " +
           (request.version == HttpVersion::kHttp10 ? "1.0" : "1.1") + "\n";
    for (const auto& [name, value] : request.headers.entries()) {
      out += "  " + name + "=" + value + "\n";
    }
    out += "  body[" + request.body + "]\n";
  }
  return out + "buffered[" + parser.buffered() + "]";
}

TEST(RequestParserTest, SplitAtEveryByteMatchesWholeBufferParse) {
  // Several GETs, a POST whose body looks like a request line, more GETs,
  // and a partial trailing request left in the buffer.
  const std::string stream =
      "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /b HTTP/1.0\r\n\r\n"
      "POST /form HTTP/1.1\r\nContent-Length: 20\r\nX-Pad:  v \r\n\r\n"
      "GET /fake HTTP/1.1\r\n"
      "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /d HTTP/1.1\r\n\r\n"
      "GET /partial HTTP/1.1\r\nHo";
  RequestParser whole;
  std::vector<HttpRequest> expected_requests;
  ASSERT_EQ(whole.Feed(stream, &expected_requests), RequestParser::State::kNeedMore);
  ASSERT_EQ(expected_requests.size(), 5u);
  EXPECT_EQ(expected_requests[2].body, "GET /fake HTTP/1.1\r\n");
  const std::string expected = Describe(expected_requests, whole);

  for (size_t split = 0; split <= stream.size(); ++split) {
    RequestParser parser;
    std::vector<HttpRequest> requests;
    ASSERT_EQ(parser.Feed(std::string_view(stream).substr(0, split), &requests),
              RequestParser::State::kNeedMore);
    ASSERT_EQ(parser.Feed(std::string_view(stream).substr(split), &requests),
              RequestParser::State::kNeedMore);
    EXPECT_EQ(Describe(requests, parser), expected) << "split at " << split;
  }
  RequestParser bytewise;
  std::vector<HttpRequest> requests;
  for (const char c : stream) {
    ASSERT_EQ(bytewise.Feed(std::string_view(&c, 1), &requests), RequestParser::State::kNeedMore);
  }
  EXPECT_EQ(Describe(requests, bytewise), expected);
}

TEST(RequestParserTest, HeaderWhitespaceTrimmed) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  parser.Feed("GET / HTTP/1.1\r\nX-Pad:   spaced out  \r\n\r\n", &requests);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(*requests[0].headers.Find("X-Pad"), "spaced out");
}

TEST(RequestParserTest, RejectsMalformedRequestLine) {
  for (const char* bad :
       {"GARBAGE\r\n\r\n", "GET /\r\n\r\n", "GET / HTTP/2.0\r\n\r\n", "GET  / HTTP/1.1\r\n\r\n",
        "GET / HTTP/1.1 extra\r\n\r\n"}) {
    RequestParser parser;
    std::vector<HttpRequest> requests;
    EXPECT_EQ(parser.Feed(bad, &requests), RequestParser::State::kError) << bad;
  }
}

TEST(RequestParserTest, RejectsControlBytesInMethodOrTarget) {
  for (const std::string& bad :
       {std::string("POST /nodes/1/\x01 HTTP/1.1\r\n\r\n"),
        std::string("GET /a\tb HTTP/1.1\r\n\r\n"), std::string("GET /a\x7f HTTP/1.1\r\n\r\n"),
        std::string("GET /a\rb HTTP/1.1\r\n\r\n"), std::string("GET /\0 HTTP/1.1\r\n\r\n", 19),
        std::string("G\x1bT / HTTP/1.1\r\n\r\n")}) {
    RequestParser parser;
    std::vector<HttpRequest> requests;
    EXPECT_EQ(parser.Feed(bad, &requests), RequestParser::State::kError) << bad;
    EXPECT_TRUE(requests.empty()) << bad;
  }
  // Bytes above 0x7f are not control bytes.
  RequestParser parser;
  std::vector<HttpRequest> requests;
  EXPECT_EQ(parser.Feed("GET /caf\xc3\xa9 HTTP/1.1\r\n\r\n", &requests),
            RequestParser::State::kNeedMore);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].path, "/caf\xc3\xa9");
}

TEST(RequestParserTest, RejectsBadHeaders) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\nno colon here\r\n\r\n", &requests),
            RequestParser::State::kError);
}

TEST(RequestParserTest, RejectsAbsurdContentLength) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", &requests),
            RequestParser::State::kError);
}

TEST(RequestParserTest, ErrorStateIsSticky) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  parser.Feed("BAD\r\n\r\n", &requests);
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n", &requests), RequestParser::State::kError);
  EXPECT_TRUE(requests.empty());
}

// --- ResponseParser ---

TEST(ResponseParserTest, RoundTripsSerializedResponse) {
  HttpResponse out;
  out.status = 200;
  out.body = std::string(1000, 'x');
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  parser.Feed(out.Serialize(), &responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, out.body);
}

TEST(ResponseParserTest, PipelinedResponses) {
  HttpResponse a;
  a.body = "aa";
  HttpResponse b;
  b.status = 404;
  b.reason = "Not Found";
  b.body = "nope";
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  parser.Feed(a.Serialize() + b.Serialize(), &responses);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "aa");
  EXPECT_EQ(responses[1].status, 404);
}

TEST(ResponseParserTest, SplitAcrossReads) {
  HttpResponse out;
  out.body = std::string(100, 'y');
  const std::string wire = out.Serialize();
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  parser.Feed(wire.substr(0, 20), &responses);
  EXPECT_TRUE(responses.empty());
  parser.Feed(wire.substr(20), &responses);
  ASSERT_EQ(responses.size(), 1u);
}

// Records streaming mode's callbacks as text: "H<status>/<length>" per head,
// the body bytes (concatenated, so the split into runs does not show), "E"
// per end. Empty runs are flagged: the sink never gets one.
class RecordingSink : public ResponseParser::Sink {
 public:
  void OnHead(HttpResponse head, uint64_t content_length) override {
    log += "H" + std::to_string(head.status) + "/" + std::to_string(content_length) + " " +
           head.reason + ":";
  }
  void OnBody(std::string_view bytes) override {
    log += bytes.empty() ? std::string("<empty run>") : std::string(bytes);
  }
  void OnEnd() override { log += "E;"; }

  std::string log;
};

// The same text for whole responses, plus whatever is left incomplete.
std::string DescribeResponses(const std::vector<HttpResponse>& responses,
                              const ResponseParser& parser) {
  std::string out;
  for (const HttpResponse& response : responses) {
    out += "H" + std::to_string(response.status) + "/" + std::to_string(response.body.size()) +
           " " + response.reason + ":" + response.body + "E;";
  }
  return out + "held=" + std::to_string(parser.buffered_bytes());
}

TEST(ResponseParserTest, SplitAtEveryByteMatchesWholeBufferParse) {
  // Pipelined 200s with bodies (one holding a blank line), a zero-length
  // body, a 404, and a partial trailing response.
  const std::string stream =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
      "HTTP/1.1 200 OK\r\nServer: x\r\nContent-Length: 0\r\n\r\n"
      "HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\nab\r\n\r\nHTTP/1"
      "HTTP/1.1 404 Not Found\r\nContent-Length: 10\r\n\r\nnot found\n"
      "HTTP/1.0 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nxyz"
      "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\npart";
  ResponseParser whole;
  std::vector<HttpResponse> expected_responses;
  ASSERT_EQ(whole.Feed(stream, &expected_responses), ResponseParser::State::kNeedMore);
  ASSERT_EQ(expected_responses.size(), 5u);
  EXPECT_EQ(expected_responses[1].body, "");
  EXPECT_EQ(expected_responses[2].body, "ab\r\n\r\nHTTP/1");
  EXPECT_EQ(expected_responses[3].status, 404);
  const std::string expected = DescribeResponses(expected_responses, whole);
  EXPECT_EQ(whole.buffered_bytes(), 4u) << "the partial body so far";

  ResponseParser whole_stream;
  RecordingSink whole_sink;
  ASSERT_EQ(whole_stream.Stream(stream, &whole_sink), ResponseParser::State::kNeedMore);
  const std::string expected_log = whole_sink.log;
  EXPECT_EQ(expected_log.substr(0, expected_log.rfind("E;") + 2),
            expected.substr(0, expected.rfind("E;") + 2))
      << "streaming and whole-response mode agree";
  EXPECT_EQ(expected_log.substr(expected_log.rfind("E;") + 2), "H200/9 OK:part");
  EXPECT_EQ(whole_stream.buffered_bytes(), 0u) << "streaming mode holds no body bytes";

  const auto check = [&](const std::vector<std::string_view>& chunks, const std::string& what) {
    ResponseParser parser;
    std::vector<HttpResponse> responses;
    ResponseParser streamer;
    RecordingSink sink;
    for (const std::string_view chunk : chunks) {
      ASSERT_EQ(parser.Feed(chunk, &responses), ResponseParser::State::kNeedMore) << what;
      ASSERT_EQ(streamer.Stream(chunk, &sink), ResponseParser::State::kNeedMore) << what;
    }
    EXPECT_EQ(DescribeResponses(responses, parser), expected) << what;
    EXPECT_EQ(sink.log, expected_log) << what;
  };
  for (size_t split = 0; split <= stream.size(); ++split) {
    check({std::string_view(stream).substr(0, split), std::string_view(stream).substr(split)},
          "split at " + std::to_string(split));
  }
  std::vector<std::string_view> bytes;
  for (size_t i = 0; i < stream.size(); ++i) {
    bytes.push_back(std::string_view(stream).substr(i, 1));
  }
  check(bytes, "byte at a time");
}

TEST(ResponseParserTest, OversizedHeadIsAnErrorInBothModes) {
  const std::string head = "HTTP/1.1 200 OK\r\nX-Big: " +
                           std::string(ResponseParser::kMaxHeaderBytes, 'v') + "\r\n\r\n";
  ResponseParser whole;
  std::vector<HttpResponse> responses;
  EXPECT_EQ(whole.Feed(head, &responses), ResponseParser::State::kError);
  ResponseParser streamer;
  RecordingSink sink;
  for (size_t at = 0; at < head.size(); at += 1000) {
    if (streamer.Stream(std::string_view(head).substr(at, 1000), &sink) ==
        ResponseParser::State::kError) {
      break;
    }
  }
  EXPECT_EQ(streamer.Stream("", &sink), ResponseParser::State::kError);
  EXPECT_LE(streamer.buffered_bytes(), ResponseParser::kMaxHeaderBytes + 4);
  EXPECT_EQ(sink.log, "");
}

TEST(ResponseParserTest, RejectsGarbage) {
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  EXPECT_EQ(parser.Feed("SPDY/9 hello\r\n\r\n", &responses), ResponseParser::State::kError);
}

// --- Tagging (Section 7.3) ---

TEST(TaggingTest, RoundTrips) {
  const std::string tagged = TagPathForNode("/dir/file.html", 3);
  EXPECT_EQ(tagged, "/__be3/dir/file.html");
  NodeId node = kInvalidNode;
  std::string path;
  ASSERT_TRUE(ParseTaggedPath(tagged, &node, &path));
  EXPECT_EQ(node, 3);
  EXPECT_EQ(path, "/dir/file.html");
}

TEST(TaggingTest, PlainPathsAreNotTags) {
  NodeId node = kInvalidNode;
  std::string path;
  EXPECT_FALSE(ParseTaggedPath("/dir/file.html", &node, &path));
  EXPECT_FALSE(ParseTaggedPath("/__bex/file", &node, &path));
  EXPECT_FALSE(ParseTaggedPath("/__be9", &node, &path));  // no trailing path
  EXPECT_FALSE(ParseTaggedPath("/__be", &node, &path));
}

TEST(TaggingTest, MultiDigitNodes) {
  NodeId node = kInvalidNode;
  std::string path;
  ASSERT_TRUE(ParseTaggedPath(TagPathForNode("/x", 127), &node, &path));
  EXPECT_EQ(node, 127);
}

TEST(ReasonPhraseTest, KnownCodes) {
  EXPECT_STREQ(ReasonPhrase(200), "OK");
  EXPECT_STREQ(ReasonPhrase(404), "Not Found");
  EXPECT_STREQ(ReasonPhrase(418), "Unknown");
}

}  // namespace
}  // namespace lard
