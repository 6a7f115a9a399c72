#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- ResponseParser -------------------------------------------------------------

bool ResponseParser::Feed(const char* data, size_t n) {
  if (complete_ || failed_) return complete_;
  buf_.append(data, n);
  wire_bytes += n;
  complete_ = Advance();
  return complete_;
}

bool ResponseParser::Advance() {
  if (!head_done_) {
    const size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return false;
    const std::string head = buf_.substr(0, end);
    if (head.compare(0, 5, "HTTP/") != 0 || head.size() < 12) {
      failed_ = true;
      return false;
    }
    status = std::atoi(head.c_str() + 9);
    size_t line = head.find("\r\n");
    while (line != std::string::npos) {
      const size_t next = head.find("\r\n", line + 2);
      std::string h = head.substr(line + 2, next == std::string::npos
                                                ? std::string::npos
                                                : next - line - 2);
      for (char& c : h) {
        if (c == ':') break;
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (h.compare(0, 15, "content-length:") == 0) {
        content_length_ = std::strtoull(h.c_str() + 15, nullptr, 10);
      } else if (h.compare(0, 18, "transfer-encoding:") == 0 &&
                 h.find("chunked") != std::string::npos) {
        chunked_ = true;
      }
      line = next;
    }
    head_done_ = true;
    pos_ = end + 4;
  }
  if (!chunked_) {
    if (buf_.size() - pos_ < content_length_) return false;
    body = buf_.substr(pos_, content_length_);
    return true;
  }
  while (true) {
    const size_t eol = buf_.find("\r\n", pos_);
    if (eol == std::string::npos) return false;
    char* parsed = nullptr;
    const size_t size = std::strtoull(buf_.c_str() + pos_, &parsed, 16);
    if (parsed == buf_.c_str() + pos_) {
      failed_ = true;
      return false;
    }
    if (size == 0) {
      // Last chunk; no trailers are sent, so a bare CRLF ends the message.
      if (buf_.size() < eol + 4) return false;
      return true;
    }
    if (buf_.size() < eol + 2 + size + 2) return false;
    body.append(buf_, eol + 2, size);
    pos_ = eol + 2 + size + 2;
  }
}

// ---- HttpClient -------------------------------------------------------------------

HttpClient::HttpClient(std::string host, uint16_t port, int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::Connect(std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{timeout_ms_ / 1000, (timeout_ms_ % 1000) * 1000};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

std::string HttpClient::Encode(const std::string& method,
                               const std::string& target,
                               const std::string& body) {
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (method == "POST") {
    req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  req += body;
  return req;
}

HttpResult HttpClient::Send(const std::string& method,
                            const std::string& target,
                            const std::string& body) {
  HttpResult result;
  const std::string req = Encode(method, target, body);
  if (fd_ < 0 && !Connect(&result.error)) return result;
  result.sent = NowSeconds();
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd_, req.data() + off, req.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      result.error = std::string("send: ") + std::strerror(errno);
      Close();
      return result;
    }
    off += static_cast<size_t>(n);
  }
  ResponseParser parser;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.error = n == 0 ? "connection closed"
                            : std::string("recv: ") + std::strerror(errno);
      Close();
      return result;
    }
    if (parser.Feed(buf, static_cast<size_t>(n))) break;
    if (parser.failed()) {
      result.error = "malformed response";
      Close();
      return result;
    }
  }
  result.done = NowSeconds();
  result.ok = true;
  result.status = parser.status;
  result.body = std::move(parser.body);
  result.wire_bytes = parser.wire_bytes;
  return result;
}

}  // namespace perfbench
