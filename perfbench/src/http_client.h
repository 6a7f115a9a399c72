#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

// A blocking HTTP/1.1 keep-alive client: one TCP connection, one request at
// a time, Content-Length or chunked response bodies.

#include <cstdint>
#include <string>

namespace perfbench {

/// Incremental response parser. Feed() returns true once a whole response
/// is buffered; `status`, `body` (de-chunked) and `wire_bytes` are then set.
class ResponseParser {
 public:
  bool Feed(const char* data, size_t n);
  bool failed() const { return failed_; }
  int status = 0;
  std::string body;
  size_t wire_bytes = 0;

 private:
  bool Advance();
  std::string buf_;
  size_t pos_ = 0;  // parse position in buf_
  bool head_done_ = false;
  bool chunked_ = false;
  size_t content_length_ = 0;
  bool complete_ = false;
  bool failed_ = false;
};

struct HttpResult {
  bool ok = false;      // transport-level success (a response arrived)
  int status = 0;
  std::string body;
  size_t wire_bytes = 0;
  double sent = 0.0;    // seconds on the generator clock
  double done = 0.0;    // last response byte
  std::string error;
};

/// Seconds on the monotonic clock.
double NowSeconds();

class HttpClient {
 public:
  HttpClient(std::string host, uint16_t port, int timeout_ms);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request (connecting first if needed) and reads the whole
  /// response. A transport failure closes the connection; the next call
  /// reconnects.
  HttpResult Send(const std::string& method, const std::string& target,
                  const std::string& body);

  /// The exact bytes Send() writes for a request.
  static std::string Encode(const std::string& method,
                            const std::string& target,
                            const std::string& body);

 private:
  bool Connect(std::string* error);
  void Close();

  std::string host_;
  uint16_t port_;
  int timeout_ms_;
  int fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
