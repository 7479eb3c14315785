#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

namespace cloudwalker {
namespace {

using Clock = std::chrono::steady_clock;

// Absolute deadline for a relative timeout; <= 0 means "forever".
Clock::time_point DeadlineFor(double timeout_seconds) {
  if (timeout_seconds <= 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_seconds));
}

// Remaining milliseconds until `deadline` for poll(); -1 = forever,
// 0 = already past.
int PollMillis(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  // Cap so the cast below can't overflow int on absurd deadlines.
  return static_cast<int>(std::min<int64_t>(left.count(), 1 << 30));
}

Status ErrnoStatus(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  if (err == ECONNREFUSED || err == ECONNRESET || err == EPIPE ||
      err == ENETUNREACH || err == EHOSTUNREACH || err == ETIMEDOUT) {
    return Status::Unavailable(msg);
  }
  return Status::IoError(msg);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)", errno);
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  // The job exchange is strictly request/response; Nagle only adds
  // latency. Best-effort — a failure just means slower frames.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Waits for `events` on fd until `deadline`.
Status PollFor(int fd, short events, Clock::time_point deadline,
               const char* what) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, PollMillis(deadline));
    if (rc > 0) return Status::Ok();
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) + ": timed out");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus(std::string(what) + ": poll", errno);
  }
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> TcpListen(uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoStatus("socket", errno);
  int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", errno);
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind(port " + std::to_string(port) + ")", errno);
  }
  if (::listen(sock.fd(), /*backlog=*/16) < 0) {
    return ErrnoStatus("listen", errno);
  }
  CW_RETURN_IF_ERROR(SetNonBlocking(sock.fd()));
  return sock;
}

StatusOr<uint16_t> BoundPort(const Socket& socket) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                    &len) < 0) {
    return ErrnoStatus("getsockname", errno);
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

StatusOr<Socket> TcpAccept(const Socket& listener, double timeout_seconds) {
  const Clock::time_point deadline = DeadlineFor(timeout_seconds);
  for (;;) {
    CW_RETURN_IF_ERROR(PollFor(listener.fd(), POLLIN, deadline, "accept"));
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      CW_RETURN_IF_ERROR(SetNonBlocking(conn.fd()));
      SetNoDelay(conn.fd());
      return conn;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // raced another accept or the peer gave up; wait again
    }
    return ErrnoStatus("accept", errno);
  }
}

StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port,
                            double timeout_seconds) {
  const Clock::time_point deadline = DeadlineFor(timeout_seconds);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (gai != 0 || res == nullptr) {
    return Status::Unavailable("cannot resolve " + host + ": " +
                               ::gai_strerror(gai));
  }
  Socket sock(::socket(res->ai_family, res->ai_socktype, res->ai_protocol));
  if (!sock.valid()) {
    const int err = errno;
    ::freeaddrinfo(res);
    return ErrnoStatus("socket", err);
  }
  Status status = SetNonBlocking(sock.fd());
  if (status.ok()) {
    if (::connect(sock.fd(), res->ai_addr, res->ai_addrlen) < 0 &&
        errno != EINPROGRESS) {
      status = ErrnoStatus("connect to " + host + ":" + service, errno);
    }
  }
  ::freeaddrinfo(res);
  CW_RETURN_IF_ERROR(status);

  // Non-blocking connect: wait for writability, then read the final
  // verdict out of SO_ERROR.
  const Status wait = PollFor(sock.fd(), POLLOUT, deadline, "connect");
  if (!wait.ok()) {
    if (wait.IsDeadlineExceeded()) {
      return Status::Unavailable("connect to " + host + ":" + service +
                                 ": timed out");
    }
    return wait;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)", errno);
  }
  if (err != 0) {
    return ErrnoStatus("connect to " + host + ":" + service, err);
  }
  SetNoDelay(sock.fd());
  return sock;
}

Status WaitReadable(const Socket& socket, double timeout_seconds) {
  return PollFor(socket.fd(), POLLIN, DeadlineFor(timeout_seconds), "recv");
}

Status SendAll(const Socket& socket, const void* data, size_t size,
               double timeout_seconds) {
  const Clock::time_point deadline = DeadlineFor(timeout_seconds);
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(socket.fd(), p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // send() does not set errno here; mirror RecvAll's peer-closed
      // classification instead of reporting a stale errno.
      return Status::Unavailable("connection closed by peer");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      CW_RETURN_IF_ERROR(PollFor(socket.fd(), POLLOUT, deadline, "send"));
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("send", errno);
  }
  return Status::Ok();
}

Status RecvAll(const Socket& socket, void* data, size_t size,
               double timeout_seconds) {
  const Clock::time_point deadline = DeadlineFor(timeout_seconds);
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(socket.fd(), p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      CW_RETURN_IF_ERROR(PollFor(socket.fd(), POLLIN, deadline, "recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("recv", errno);
  }
  return Status::Ok();
}

}  // namespace cloudwalker
