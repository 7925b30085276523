#include "src/http/http_message.h"

#include <cctype>

namespace lard {

const char* HttpVersionString(HttpVersion version) {
  return version == HttpVersion::kHttp10 ? "HTTP/1.0" : "HTTP/1.1";
}

bool HttpHeaders::NameEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void HttpHeaders::Add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

const std::string* HttpHeaders::Find(const std::string& name) const {
  for (const auto& [key, value] : entries_) {
    if (NameEquals(key, name)) {
      return &value;
    }
  }
  return nullptr;
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = headers.Find("Connection");
  if (version == HttpVersion::kHttp11) {
    return connection == nullptr || !HttpHeaders::NameEquals(*connection, "close");
  }
  // HTTP/1.0: non-persistent (explicit keep-alive is out of scope, matching
  // the paper's "HTTP/1.0 connections are assumed not to support
  // persistence").
  return false;
}

std::string HttpRequest::Serialize() const {
  std::string out = method + " " + path + " " + HttpVersionString(version) + "\r\n";
  bool have_length = false;
  for (const auto& [name, value] : headers.entries()) {
    out += name + ": " + value + "\r\n";
    if (HttpHeaders::NameEquals(name, "Content-Length")) {
      have_length = true;
    }
  }
  if (!body.empty() && !have_length) {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string HttpResponse::Serialize() const {
  std::string out = SerializeHead(body.size());
  out += body;
  return out;
}

std::string HttpResponse::SerializeHead(uint64_t body_size) const {
  std::string out = HttpVersionString(version);
  out += " " + std::to_string(status) + " " + reason + "\r\n";
  bool have_length = false;
  for (const auto& [name, value] : headers.entries()) {
    out += name + ": " + value + "\r\n";
    if (HttpHeaders::NameEquals(name, "Content-Length")) {
      have_length = true;
    }
  }
  if (!have_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
  return out;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace lard
