// Minimal TCP plumbing for cloudwalker-net: an RAII fd, listen /
// accept / connect with deadlines, and send-all / recv-all loops driven
// by poll(2). No external dependencies — plain POSIX sockets, kept in
// non-blocking mode so every wait is a poll with an explicit deadline and
// a slow or dead peer can never wedge the caller.
//
// Status mapping (the error vocabulary the retry logic keys on):
//   kUnavailable      — connect refused, peer closed, connection reset
//   kDeadlineExceeded — the deadline elapsed first
//   kIoError          — anything else errno-shaped
// A timeout argument <= 0 means wait forever.

#ifndef CLOUDWALKER_NET_SOCKET_H_
#define CLOUDWALKER_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace cloudwalker {

/// Owning socket fd. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { Close(); }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Listens on 127.0.0.1-any-interface TCP `port` (0 picks an ephemeral
/// port — read it back with BoundPort). SO_REUSEADDR is set so a
/// restarted worker can rebind its old port immediately.
StatusOr<Socket> TcpListen(uint16_t port);

/// The local port a listener (or connected socket) is bound to.
StatusOr<uint16_t> BoundPort(const Socket& socket);

/// Accepts one connection, waiting at most `timeout_seconds`.
StatusOr<Socket> TcpAccept(const Socket& listener, double timeout_seconds);

/// Connects to host:port within `timeout_seconds`. Resolution failures
/// and refused/timed-out connects come back kUnavailable — the caller's
/// cue that the worker is not there, as opposed to a protocol error.
StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port,
                            double timeout_seconds);

/// Waits until `socket` has readable data (kDeadlineExceeded on timeout).
/// Lets a serve loop poll for the next frame in short slices — checking a
/// stop flag between slices — without ever starting a partial read.
Status WaitReadable(const Socket& socket, double timeout_seconds);

/// Writes exactly `size` bytes before `timeout_seconds` elapse.
Status SendAll(const Socket& socket, const void* data, size_t size,
               double timeout_seconds);

/// Reads exactly `size` bytes before `timeout_seconds` elapse. A clean
/// peer close mid-read is kUnavailable.
Status RecvAll(const Socket& socket, void* data, size_t size,
               double timeout_seconds);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_SOCKET_H_
