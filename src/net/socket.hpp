// Minimal socket plumbing for the cluster data plane (DESIGN.md §14):
// TCP links between rank processes, socketpairs between in-process ranks.
//
// Everything here is localhost-first and deadline-driven: every call that
// can block takes a timeout in milliseconds and converts "nothing
// happened before the deadline" into a clean IoError — the engine's
// peer-death watchdog is built from these timeouts plus EOF/ECONNRESET
// detection, never from signals or indefinite blocking.
//
// The fd is used full-duplex by two threads: the inbound poller thread
// reads while a transport actor writes. The two directions share no
// buffers, so no locking is needed — but only the owner (PeerLink in
// cluster_rank.hpp) may close the fd, and only after both sides stopped.
//
// Writes use sendmsg(MSG_NOSIGNAL) so a dead peer surfaces as EPIPE, not
// SIGPIPE.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/status.hpp"

namespace gpsa {

/// Move-only RAII socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close_fd(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close_fd();

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1:`port` (SO_REUSEADDR so rapid
/// test restarts don't trip TIME_WAIT).
[[nodiscard]] Result<Socket> tcp_listen(std::uint16_t port, int backlog = 16);

/// Accepts one connection, waiting at most `timeout_ms`.
[[nodiscard]] Result<Socket> tcp_accept(const Socket& listener, int timeout_ms);

/// Connects to 127.0.0.1:`port`, retrying refused/unreachable attempts
/// until the deadline — the peer's listener may simply not exist yet
/// during cluster bootstrap. Retries back off from 1 ms, doubling up to
/// 20 ms.
[[nodiscard]] Result<Socket> tcp_connect_retry(std::uint16_t port, int timeout_ms);

/// A connected pair of local stream sockets (AF_UNIX): the link between
/// two ranks that run in one process. Frames cross it exactly as they
/// cross a TCP link.
[[nodiscard]] Result<std::pair<Socket, Socket>> socket_pair();

/// TCP_NODELAY: barrier frames are latency-sensitive and tiny.
[[nodiscard]] Status set_nodelay(const Socket& socket);

/// One nonblocking read. Returns the byte count (0 when the socket had
/// nothing despite POLLIN — spurious wakeup) and sets `eof` when the
/// peer closed cleanly. Connection resets surface as FailedPrecondition.
[[nodiscard]] Result<std::size_t> recv_nonblocking(const Socket& socket, std::uint8_t* buf,
                                     std::size_t cap, bool& eof);

/// Waits for readability. Returns false on timeout; POLLHUP/POLLERR
/// count as readable (the next recv reports the condition).
[[nodiscard]] Result<bool> wait_readable(const Socket& socket, int timeout_ms);

/// Writes the full iovec array, resuming partial writes and polling for
/// POLLOUT under the deadline. A closed/reset peer is FailedPrecondition,
/// a deadline miss IoError.
[[nodiscard]] Status send_all(const Socket& socket, const iovec* iov, int iov_count,
                int timeout_ms);

[[nodiscard]] inline Status send_all(const Socket& socket, const std::uint8_t* data,
                       std::size_t size, int timeout_ms) {
  iovec iov{const_cast<std::uint8_t*>(data), size};
  return send_all(socket, &iov, 1, timeout_ms);
}

}  // namespace gpsa
