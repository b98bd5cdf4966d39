#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "util/check.hpp"

namespace gpsa {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

Result<bool> poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return io_error_errno("poll failed");
    }
    return rc > 0;
  }
}

}  // namespace

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> tcp_listen(std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) {
    return io_error_errno("socket() failed");
  }
  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return io_error_errno("setsockopt(SO_REUSEADDR) failed");
  }
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return io_error_errno("bind(127.0.0.1:" + std::to_string(port) +
                          ") failed");
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return io_error_errno("listen failed");
  }
  return sock;
}

Result<Socket> tcp_accept(const Socket& listener, int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  for (;;) {
    GPSA_ASSIGN_OR_RETURN(
        const bool ready,
        poll_one(listener.fd(), POLLIN, remaining_ms(deadline)));
    if (!ready) {
      return io_error("accept timed out after " + std::to_string(timeout_ms) +
                      " ms");
    }
    const int fd = ::accept4(listener.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      return Socket(fd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) {
      continue;  // raced; poll again under the same deadline
    }
    return io_error_errno("accept failed");
  }
}

Result<Socket> tcp_connect_retry(std::uint16_t port, int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  const sockaddr_in addr = loopback_addr(port);
  // Short doubling backoff: a peer that binds its listener first thing
  // is usually there within a millisecond or two.
  auto backoff = std::chrono::milliseconds(1);
  for (;;) {
    Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) {
      return io_error_errno("socket() failed");
    }
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return sock;
    }
    if (errno != ECONNREFUSED && errno != ENOENT && errno != EINTR &&
        errno != ETIMEDOUT && errno != EADDRNOTAVAIL) {
      return io_error_errno("connect(127.0.0.1:" + std::to_string(port) +
                            ") failed");
    }
    if (Clock::now() >= deadline) {
      return io_error("connect(127.0.0.1:" + std::to_string(port) +
                      ") gave up after " + std::to_string(timeout_ms) +
                      " ms (peer never started listening?)");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(20));
  }
}

Result<std::pair<Socket, Socket>> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return io_error_errno("socketpair() failed");
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

Status set_nodelay(const Socket& socket) {
  const int one = 1;
  if (::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) !=
      0) {
    return io_error_errno("setsockopt(TCP_NODELAY) failed");
  }
  return Status::ok();
}

Result<std::size_t> recv_nonblocking(const Socket& socket, std::uint8_t* buf,
                                     std::size_t cap, bool& eof) {
  eof = false;
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buf, cap, MSG_DONTWAIT);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
    if (n == 0) {
      eof = true;
      return std::size_t{0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return std::size_t{0};
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return failed_precondition("peer connection reset");
    }
    return io_error_errno("recv failed");
  }
}

Result<bool> wait_readable(const Socket& socket, int timeout_ms) {
  return poll_one(socket.fd(), POLLIN, timeout_ms);
}

Status send_all(const Socket& socket, const iovec* iov, int iov_count,
                int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  // Local copy we can advance across partial writes.
  iovec local[8];
  GPSA_CHECK(iov_count > 0 && iov_count <= 8);
  std::memcpy(local, iov, sizeof(iovec) * static_cast<std::size_t>(iov_count));
  int first = 0;
  while (first < iov_count) {
    msghdr msg{};
    msg.msg_iov = local + first;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count - first);
    const ssize_t n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        GPSA_ASSIGN_OR_RETURN(
            const bool ready,
            poll_one(socket.fd(), POLLOUT, remaining_ms(deadline)));
        if (!ready) {
          return io_error("send timed out after " +
                          std::to_string(timeout_ms) +
                          " ms (peer not draining)");
        }
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return failed_precondition("peer connection closed mid-send");
      }
      return io_error_errno("sendmsg failed");
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (first < iov_count && advanced >= local[first].iov_len) {
      advanced -= local[first].iov_len;
      ++first;
    }
    if (first < iov_count) {
      local[first].iov_base =
          static_cast<std::uint8_t*>(local[first].iov_base) + advanced;
      local[first].iov_len -= advanced;
      if (Clock::now() >= deadline) {
        return io_error("send deadline exceeded mid-frame");
      }
    }
  }
  return Status::ok();
}

}  // namespace gpsa
