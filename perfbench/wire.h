// Loopback client for ctxrankd: one CTXQ1 connection whose reads spin,
// plus one-shot blocking HTTP GETs for /healthz, /metrics and /compact.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Connects to 127.0.0.1:`port`; false (with `error`) on failure.
  bool Dial(uint16_t port, std::string* error);
  /// Writes every byte of `frame`.
  bool Send(std::string_view frame);
  /// Waits, spinning, for the next whole frame and copies its type and
  /// body out.
  bool Read(uint8_t* type, std::string* body);

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// GET `path` on its own connection; returns the response body and puts
/// the HTTP status in `status` (0 when the request failed).
std::string HttpGet(uint16_t port, const std::string& path, int* status);

/// The unsigned integer after `"key":` in a flat JSON object, or -1.
long long JsonInt(std::string_view json, std::string_view key);

/// Sum of every sample of Prometheus counter `name` in `text`.
double PromCounter(std::string_view text, std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
