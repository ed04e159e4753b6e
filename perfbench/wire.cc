#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "serve/net.h"

namespace perfbench {
namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireConn::Dial(uint16_t port, std::string* error) {
  fd_ = Connect(port);
  if (fd_ < 0) *error = std::string("connect: ") + std::strerror(errno);
  return fd_ >= 0;
}

bool WireConn::Send(std::string_view frame) { return WriteAll(fd_, frame); }

bool WireConn::Read(uint8_t* type, std::string* body) {
  for (;;) {
    const std::string_view pending(buf_.data() + pos_, buf_.size() - pos_);
    const auto frame = ctxrank::serve::net::NextFrame(pending, 64u << 20);
    if (frame.state == ctxrank::serve::net::FrameState::kReady) {
      *type = frame.type;
      body->assign(frame.body);
      pos_ += frame.consumed;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (frame.state != ctxrank::serve::net::FrameState::kNeedMore) return false;
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    // Spins rather than blocks: a client that sleeps in recv() adds its
    // own wake-up to every round trip, and on a shared VM that wake-up
    // swings with the host's load from run to run.
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

std::string HttpGet(uint16_t port, const std::string& path, int* status) {
  *status = 0;
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string resp;
  if (WriteAll(fd, req)) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      resp.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  const size_t sp = resp.find(' ');
  const size_t head_end = resp.find("\r\n\r\n");
  if (sp == std::string::npos || head_end == std::string::npos) return "";
  *status = std::atoi(resp.c_str() + sp + 1);
  return resp.substr(head_end + 4);
}

long long JsonInt(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return -1;
  size_t i = at + needle.size();
  if (i >= json.size() || json[i] < '0' || json[i] > '9') return -1;
  long long v = 0;
  for (; i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i) {
    v = v * 10 + (json[i] - '0');
  }
  return v;
}

double PromCounter(std::string_view text, std::string_view name) {
  double total = 0.0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    if (line.size() > name.size() && line.substr(0, name.size()) == name &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const size_t sp = line.rfind(' ');
      total += std::strtod(std::string(line.substr(sp + 1)).c_str(), nullptr);
    }
    start = end + 1;
  }
  return total;
}

}  // namespace perfbench
