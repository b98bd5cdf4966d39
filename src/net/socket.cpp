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

// --- io_uring send path -------------------------------------------------

#if defined(GPSA_WITH_URING)

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#include <atomic>
#include <cstdlib>

namespace gpsa {
namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

bool net_uring_enabled() {
  const char* value = std::getenv("GPSA_NET_URING");
  if (value == nullptr) {
    return false;  // opt-in: the sendmsg path is the default
  }
  const std::string v(value);
  return v == "1" || v == "on" || v == "true";
}

/// One-SQE-deep IORING_OP_SEND ring: the transport actor serializes its
/// own writes, so depth 1 keeps the reaping trivial while still moving
/// the send syscall onto the ring (the same shape as src/io's read ring).
class UringSenderImpl final : public UringSender {
 public:
  static std::unique_ptr<UringSender> try_create() {
    auto sender = std::unique_ptr<UringSenderImpl>(new UringSenderImpl());
    if (!sender->init()) {
      return nullptr;
    }
    return sender;
  }

  ~UringSenderImpl() override {
    if (sq_ring_ != MAP_FAILED) {
      ::munmap(sq_ring_, sq_ring_bytes_);  // gpsa-lint: allow(raw-io)
    }
    if (cq_ring_ != MAP_FAILED && cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_bytes_);  // gpsa-lint: allow(raw-io)
    }
    if (sqes_ != MAP_FAILED) {
      ::munmap(sqes_, sqe_bytes_);  // gpsa-lint: allow(raw-io)
    }
    if (ring_fd_ >= 0) {
      ::close(ring_fd_);
    }
  }

  Status send(const Socket& socket, const std::uint8_t* data,
              std::size_t size, int timeout_ms) override {
    std::size_t sent = 0;
    while (sent < size) {
      io_uring_sqe* sqe = &sqes_[*sq_tail_ & *sq_mask_];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_SEND;
      sqe->fd = socket.fd();
      sqe->addr = reinterpret_cast<std::uint64_t>(data + sent);
      sqe->len = static_cast<std::uint32_t>(size - sent);
      sqe->msg_flags = MSG_NOSIGNAL;
      sq_array_[*sq_tail_ & *sq_mask_] = *sq_tail_ & *sq_mask_;
      store_release(sq_tail_, *sq_tail_ + 1);
      const int rc = sys_io_uring_enter(ring_fd_, 1, 1, IORING_ENTER_GETEVENTS);
      if (rc < 0) {
        return io_error_errno("io_uring_enter(SEND) failed");
      }
      const unsigned head = *cq_head_;
      if (load_acquire(cq_tail_) == head) {
        return io_error("io_uring SEND returned without a completion");
      }
      const io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      const int res = cqe.res;
      store_release(cq_head_, head + 1);
      if (res < 0) {
        if (res == -EPIPE || res == -ECONNRESET) {
          return failed_precondition("peer connection closed mid-send");
        }
        if (res == -EAGAIN) {
          // Nonblocking-style stall; let the poll path pace us.
          pollfd pfd{socket.fd(), POLLOUT, 0};
          const int prc = ::poll(&pfd, 1, timeout_ms);
          if (prc < 0) {
            return io_error_errno("poll failed");
          }
          if (prc == 0) {
            return io_error("uring send timed out (peer not draining)");
          }
          continue;
        }
        return io_error("io_uring SEND failed: " +
                        std::string(std::strerror(-res)));
      }
      sent += static_cast<std::size_t>(res);
    }
    return Status::ok();
  }

 private:
  UringSenderImpl() = default;

  static unsigned load_acquire(unsigned* p) {
    return std::atomic_ref<unsigned>(*p).load(
        std::memory_order_acquire);  // gpsa-lint: allow(memory-order)
  }
  static void store_release(unsigned* p, unsigned v) {
    std::atomic_ref<unsigned>(*p).store(
        v, std::memory_order_release);  // gpsa-lint: allow(memory-order)
  }

  bool init() {
    io_uring_params params{};
    ring_fd_ = sys_io_uring_setup(2, &params);
    if (ring_fd_ < 0) {
      return false;  // kernel/sandbox refuses the ring: fall back
    }
    sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_,  // gpsa-lint: allow(raw-io)
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                      ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) {
      return false;
    }
    if (params.features & IORING_FEAT_SINGLE_MMAP) {
      cq_ring_ = sq_ring_;
    } else {
      cq_ring_ = ::mmap(nullptr, cq_ring_bytes_,  // gpsa-lint: allow(raw-io)
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                        ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        return false;
      }
    }
    sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqe_bytes_,  // gpsa-lint: allow(raw-io)
               PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, ring_fd_,
               IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      return false;
    }
    auto* sq = static_cast<std::uint8_t*>(sq_ring_);
    auto* cq = static_cast<std::uint8_t*>(cq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    return true;
  }

  int ring_fd_ = -1;
  void* sq_ring_ = MAP_FAILED;
  void* cq_ring_ = MAP_FAILED;
  io_uring_sqe* sqes_ = static_cast<io_uring_sqe*>(MAP_FAILED);
  std::size_t sq_ring_bytes_ = 0;
  std::size_t cq_ring_bytes_ = 0;
  std::size_t sqe_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
};

}  // namespace

std::unique_ptr<UringSender> UringSender::create() {
  if (!net_uring_enabled()) {
    return nullptr;
  }
  return UringSenderImpl::try_create();
}

}  // namespace gpsa

#else  // !GPSA_WITH_URING

namespace gpsa {

std::unique_ptr<UringSender> UringSender::create() { return nullptr; }

}  // namespace gpsa

#endif
