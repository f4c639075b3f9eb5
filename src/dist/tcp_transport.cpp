#include "dist/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>

#include "dist/frame.h"

namespace gks::dist {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Splits "host:port" (hostname or IPv4 literal) or "[host]:port"
/// (IPv6 literal — the brackets disambiguate the address's own colons
/// from the port separator, RFC 3986 style). An empty host means the
/// wildcard address of the respective family.
std::pair<std::string, std::string> split_address(const std::string& addr) {
  if (!addr.empty() && addr.front() == '[') {
    const auto close = addr.find(']');
    GKS_REQUIRE(close != std::string::npos && close + 1 < addr.size() &&
                    addr[close + 1] == ':',
                "bracketed tcp address must be [host]:port, got '" + addr +
                    "'");
    std::string host = addr.substr(1, close - 1);
    if (host.empty()) host = "::";
    return {host, addr.substr(close + 2)};
  }
  const auto colon = addr.rfind(':');
  GKS_REQUIRE(colon != std::string::npos,
              "tcp address must be host:port, got '" + addr + "'");
  std::string host = addr.substr(0, colon);
  if (host.empty()) host = "0.0.0.0";
  return {host, addr.substr(colon + 1)};
}

std::string sockaddr_text(const sockaddr_storage& ss) {
  char host[INET6_ADDRSTRLEN] = {0};
  std::uint16_t port = 0;
  if (ss.ss_family == AF_INET) {
    const auto* a = reinterpret_cast<const sockaddr_in*>(&ss);
    ::inet_ntop(AF_INET, &a->sin_addr, host, sizeof(host));
    port = ntohs(a->sin_port);
  } else if (ss.ss_family == AF_INET6) {
    const auto* a = reinterpret_cast<const sockaddr_in6*>(&ss);
    ::inet_ntop(AF_INET6, &a->sin6_addr, host, sizeof(host));
    port = ntohs(a->sin6_port);
    // Bracketed so the text round-trips through split_address (a v6
    // listener's address() is directly usable as a connect target).
    std::string text = "[";
    text += host;
    text += "]:";
    text += std::to_string(port);
    return text;
  }
  std::string text = host;
  text += ':';
  text += std::to_string(port);
  return text;
}

/// poll() one fd for `events`, bounded by the deadline semantics of
/// Connection::recv (timeout < 0 waits forever). Returns false on
/// timeout. EINTR restarts with the remaining budget.
bool poll_fd(int fd, short events, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s < 0 ? 0 : timeout_s));
  for (;;) {
    int ms = -1;
    if (timeout_s >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      ms = left <= 0 ? 0 : static_cast<int>(left);
    }
    pollfd pfd{fd, events, 0};
    const int r = ::poll(&pfd, 1, ms);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) throw TransportError(errno_text("poll"));
  }
}

class TcpConnection : public Connection {
 public:
  TcpConnection(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override {
    close();
    ::close(fd_);
  }

  void send(const std::string& frame) override {
    const std::string wire = encode_frame(frame);
    std::lock_guard lock(send_mu_);
    if (closed_.load(std::memory_order_acquire)) {
      throw ConnectionClosed("send on closed connection to " + peer_);
    }
    std::size_t off = 0;
    while (off < wire.size()) {
      // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      throw ConnectionClosed("send to " + peer_ + " failed: " +
                             std::strerror(errno));
    }
  }

  std::optional<std::string> recv(double timeout_s) override {
    for (;;) {
      if (auto frame = decoder_.next()) return frame;
      if (closed_.load(std::memory_order_acquire)) {
        throw ConnectionClosed("recv on closed connection to " + peer_);
      }
      if (!poll_fd(fd_, POLLIN, timeout_s)) return std::nullopt;
      char buf[16 * 1024];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) throw ConnectionClosed("peer " + peer_ + " closed");
      throw ConnectionClosed("read from " + peer_ + " failed: " +
                             std::strerror(errno));
    }
  }

  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      // shutdown (not close) so a racing recv() wakes with EOF while
      // the fd number stays valid until the destructor.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  std::string peer() const override { return peer_; }

 private:
  int fd_;
  std::string peer_;
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  FrameDecoder decoder_;
};

class TcpListener : public Listener {
 public:
  TcpListener(int fd, std::string address)
      : fd_(fd), address_(std::move(address)) {}

  ~TcpListener() override {
    close();
    ::close(fd_);
  }

  std::unique_ptr<Connection> accept(double timeout_s) override {
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) {
        throw ConnectionClosed("listener on " + address_ + " closed");
      }
      if (!poll_fd(fd_, POLLIN, timeout_s)) return nullptr;
      sockaddr_storage ss{};
      socklen_t len = sizeof(ss);
      const int cfd = ::accept(fd_, reinterpret_cast<sockaddr*>(&ss), &len);
      if (cfd >= 0) {
        return std::make_unique<TcpConnection>(cfd, sockaddr_text(ss));
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (closed_.load(std::memory_order_acquire)) {
        throw ConnectionClosed("listener on " + address_ + " closed");
      }
      throw TransportError(errno_text("accept"));
    }
  }

  std::string address() const override { return address_; }

  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  int fd_;
  std::string address_;
  std::atomic<bool> closed_{false};
};

}  // namespace

TcpTransport::TcpTransport() : epoch_(std::chrono::steady_clock::now()) {}

double TcpTransport::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void TcpTransport::sleep_s(double seconds) const {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::unique_ptr<Listener> TcpTransport::listen(const std::string& address) {
  const auto [host, port] = split_address(address);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  GKS_REQUIRE(gai == 0, "cannot resolve listen address '" + address +
                            "': " + gai_strerror(gai));
  int fd = -1;
  std::string error;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = errno_text("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    error = errno_text("bind/listen");
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw TransportError("cannot listen on '" + address + "': " + error);
  }
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len);
  return std::make_unique<TcpListener>(fd, sockaddr_text(ss));
}

std::unique_ptr<Connection> TcpTransport::connect(const std::string& address,
                                                  double timeout_s) {
  const auto [host, port] = split_address(address);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    throw TransportError("cannot resolve '" + address +
                         "': " + gai_strerror(gai));
  }
  int fd = -1;
  std::string error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = errno_text("socket");
      continue;
    }
    // Non-blocking connect so the caller's timeout is honored even
    // against a black-holed address.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    bool ok = rc == 0;
    if (!ok && errno == EINPROGRESS) {
      try {
        ok = poll_fd(fd, POLLOUT, timeout_s);
      } catch (const TransportError&) {
        ok = false;
      }
      if (ok) {
        int soerr = 0;
        socklen_t slen = sizeof(soerr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen);
        ok = soerr == 0;
        if (!ok) error = std::string("connect: ") + std::strerror(soerr);
      } else {
        error = "connect timed out";
      }
    } else if (!ok) {
      error = errno_text("connect");
    }
    if (ok) {
      ::fcntl(fd, F_SETFL, flags);
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw TransportError("cannot connect to '" + address + "': " + error);
  }
  return std::make_unique<TcpConnection>(fd, address);
}

}  // namespace gks::dist
