#include "net/transport.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace gpsa {

TransportActor::TransportActor(std::uint16_t src_rank, std::uint16_t version,
                               const Socket* socket, int timeout_ms,
                               std::function<void(Status)> on_error)
    : src_rank_(src_rank),
      version_(version),
      socket_(socket),
      timeout_ms_(timeout_ms),
      on_error_(std::move(on_error)) {}

void TransportActor::on_message(TransportMsg msg) {
  if (msg.kind == TransportMsg::Kind::kFence) {
    if (msg.fence) {
      msg.fence->set_value(error_);
    }
    return;
  }
  if (error_.is_ok()) {
    Status status;
    if (msg.kind == TransportMsg::Kind::kPartials) {
      msg.partials.encode(partials_bytes_);
      status = write_frame(FrameType::kPartials, data_seq_++, partials_bytes_);
    } else {
      status = write_frame(msg.type, control_seq_++, msg.payload);
    }
    if (!status.is_ok()) {
      error_ = status;
      if (on_error_) {
        on_error_(std::move(status));
      }
    }
  }
}

Status TransportActor::write_frame(FrameType type, std::uint32_t seq,
                                   const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(header, version_, type, src_rank_, seq,
                      static_cast<std::uint32_t>(payload.size()),
                      crc32(payload.data(), payload.size()));
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  return send_all(*socket_, iov, payload.empty() ? 1 : 2, timeout_ms_);
}

InboundPoller::InboundPoller(std::vector<Peer> peers, FrameHandler on_frame,
                             ErrorHandler on_error)
    : on_frame_(std::move(on_frame)), on_error_(std::move(on_error)) {
  links_.reserve(peers.size());
  for (Peer& peer : peers) {
    Link link;
    link.decoder = std::move(peer.decoder);
    link.decoder.set_accept_version(peer.accept_version);
    link.peer = std::move(peer);
    links_.push_back(std::move(link));
  }
}

InboundPoller::~InboundPoller() {
  stop();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
}

Status InboundPoller::start() {
  GPSA_CHECK(!thread_.joinable() && wake_fd_ < 0);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return io_error_errno("eventfd failed");
  }
  thread_ = std::thread([this] { run(); });
  return Status::ok();
}

void InboundPoller::stop() {
  if (thread_.joinable()) {
    // A failed write can only be EAGAIN on a saturated counter, which is
    // readable already: the poll wakes either way.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    thread_.join();
  }
}

void InboundPoller::run() {
  // Frames fully buffered during the handshake complete without any new
  // bytes arriving — decode them before the first poll, or a link with no
  // further traffic would sit on them forever.
  for (Link& link : links_) {
    if (!link.dead) {
      decode_buffered(link);
    }
  }
  std::vector<pollfd> fds;
  std::vector<Link*> by_fd;
  for (;;) {
    // Slot 0 is the wake-up eventfd (readable once stop() wrote it);
    // links follow in by_fd order.
    fds.assign(1, pollfd{wake_fd_, POLLIN, 0});
    by_fd.clear();
    for (Link& link : links_) {
      if (!link.dead) {
        fds.push_back(pollfd{link.peer.socket->fd(), POLLIN, 0});
        by_fd.push_back(&link);
      }
    }
    if (by_fd.empty()) {
      return;  // every peer gone; nothing left to poll
    }
    const int rc = ::poll(fds.data(), fds.size(), /*timeout=*/-1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      // Poll itself failing poisons every remaining link.
      Status status = io_error_errno("inbound poll failed");
      for (Link* link : by_fd) {
        link->dead = true;
        on_error_(link->peer.rank, status);
      }
      return;
    }
    if (fds[0].revents != 0) {
      return;  // stop() woke us
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      drain(*by_fd[i - 1]);
    }
  }
}

void InboundPoller::drain(Link& link) {
  std::uint8_t buf[64 * 1024];
  bool eof = false;
  auto got = recv_nonblocking(*link.peer.socket, buf, sizeof(buf), eof);
  if (!got.is_ok()) {
    link.dead = true;
    on_error_(link.peer.rank, got.status());
    return;
  }
  if (got.value() > 0) {
    link.decoder.feed(buf, got.value());
    decode_buffered(link);
    if (link.dead) {
      return;
    }
  }
  if (eof) {
    link.dead = true;
    on_error_(link.peer.rank,
              failed_precondition("peer rank " +
                                  std::to_string(link.peer.rank) +
                                  " closed the connection"));
  }
}

void InboundPoller::decode_buffered(Link& link) {
  Frame frame;
  for (;;) {
    auto produced = link.decoder.next(frame);
    if (!produced.is_ok()) {
      link.dead = true;
      on_error_(link.peer.rank, produced.status());
      return;
    }
    if (!produced.value()) {
      return;
    }
    on_frame_(link.peer.rank, std::move(frame));
  }
}

}  // namespace gpsa
