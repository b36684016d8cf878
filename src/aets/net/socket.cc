#include "aets/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

#include "aets/obs/metrics.h"

namespace aets {
namespace net {

namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status ErrnoStatus(const char* op, int err) {
  if (err == EPIPE || err == ECONNRESET || err == ECONNABORTED ||
      err == ENOTCONN) {
    return Status::Aborted(std::string(op) + ": peer closed (" +
                           strerror(err) + ")");
  }
  return Status::Internal(std::string(op) + ": " + strerror(err));
}

/// Polls for `events` with a deadline; OK exactly when the socket is ready.
Status PollFor(int fd, short events, int timeout_ms, const char* what) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    int rc = poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();  // readable/writable OR error/hup —
                                      // let the following syscall report it
    if (rc == 0) {
      static obs::Counter* timeouts = obs::GetCounter("net.io_timeouts");
      timeouts->Add(1);
      return Status::TimedOut(std::string(what) + " timed out");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("poll", errno);
  }
}

}  // namespace

TcpSocket::TcpSocket(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    SetNonBlocking(fd_);
    SetNoDelay(fd_);  // no-op (ENOTSUP/EOPNOTSUPP) on AF_UNIX pairs
  }
}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpSocket> TcpSocket::Connect(const std::string& host, uint16_t port,
                                     int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 host: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  TcpSocket sock(fd);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    return ErrnoStatus("connect", errno);
  }
  if (rc < 0) {
    Status ready = PollFor(fd, POLLOUT, timeout_ms, "connect");
    if (!ready.ok()) return ready;
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return Status::Aborted("connect to " + host + ":" +
                             std::to_string(port) + " failed: " +
                             strerror(err != 0 ? err : errno));
    }
  }
  return sock;
}

Result<std::pair<TcpSocket, TcpSocket>> TcpSocket::Pair() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) {
    return ErrnoStatus("socketpair", errno);
  }
  return std::make_pair(TcpSocket(fds[0]), TcpSocket(fds[1]));
}

Status TcpSocket::WriteAll(const void* data, size_t n, int timeout_ms) {
  static obs::Counter* bytes_sent = obs::GetCounter("net.bytes_sent");
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < n) {
    ssize_t wrote = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (wrote > 0) {
      off += static_cast<size_t>(wrote);
      bytes_sent->Add(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Status ready = PollFor(fd_, POLLOUT, timeout_ms, "write");
      if (!ready.ok()) return ready;
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return ErrnoStatus("send", errno);
  }
  return Status::OK();
}

Result<size_t> TcpSocket::ReadSome(void* buf, size_t n, int timeout_ms) {
  static obs::Counter* bytes_recv = obs::GetCounter("net.bytes_recv");
  for (;;) {
    ssize_t got = ::recv(fd_, buf, n, 0);
    if (got > 0) {
      bytes_recv->Add(got);
      return static_cast<size_t>(got);
    }
    if (got == 0) return size_t{0};  // clean EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status ready = PollFor(fd_, POLLIN, timeout_ms, "read");
      if (!ready.ok()) return ready;
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("recv", errno);
  }
}

void TcpSocket::ShutdownSend() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpSocket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<TcpListener> TcpListener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  TcpListener listener;
  listener.fd_ = fd;
  SetNonBlocking(fd);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoStatus("bind", errno);
  }
  if (listen(fd, SOMAXCONN) < 0) return ErrnoStatus("listen", errno);
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    return ErrnoStatus("getsockname", errno);
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpSocket> TcpListener::Accept(int timeout_ms) {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      Status ready = PollFor(fd_, POLLIN, timeout_ms, "accept");
      if (!ready.ok()) return ready;
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("accept", errno);
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace aets
