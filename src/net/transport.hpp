// Transport actors + inbound poller: the cluster data plane's two halves
// (DESIGN.md §14), wired up by RankLinks (rank_links.hpp).
//
// Outbound: one TransportActor per peer serializes frames onto its
// peer's socket with the deadline-driven helpers in socket.hpp, so no
// dispatcher or manager blocks on the network. A kPartials message is
// encoded as one PARTIALS frame into a buffer the actor reuses; every
// frame goes to the wire as two iovecs, header and payload. Blocking
// inside on_message is safe here and only here: the peer's dedicated
// poller thread drains its end regardless of that peer's actor
// scheduling, so no send-send cycle can deadlock.
//
// Inbound: one InboundPoller thread per rank polls every peer socket,
// feeds the per-link FrameDecoder and hands completed frames to its
// handler. EOF / ECONNRESET / decode poisoning surface through the error
// handler exactly once per peer, after which the dead link leaves the
// poll set. The poll waits without a timeout: stop() wakes it through an
// eventfd in the same poll set, so stopping an idle poller costs no tick.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "actor/actor.hpp"
#include "net/socket.hpp"
#include "net/wire_frame.hpp"
#include "util/status.hpp"

namespace gpsa {

struct TransportMsg {
  enum class Kind : std::uint8_t { kPartials, kControl, kFence };
  Kind kind = Kind::kControl;
  /// kPartials: a dispatcher's combined flush.
  PartialsPayload partials;
  /// kControl: frame type + pre-encoded payload.
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> payload;
  /// kFence: resolved (with the link's sticky status) once every frame
  /// queued before it has reached the kernel — what bounds an abort's
  /// last frames and the end-of-run quiesce.
  std::shared_ptr<std::promise<Status>> fence;
};

class TransportActor final : public Actor<TransportMsg> {
 public:
  /// `socket` must outlive the actor system; the actor writes, the
  /// poller reads, nobody else touches the fd. `on_error` fires once on
  /// the first failed send (engine-side abort propagation).
  TransportActor(std::uint16_t src_rank, std::uint16_t version,
                 const Socket* socket, int timeout_ms,
                 std::function<void(Status)> on_error);

 protected:
  void on_message(TransportMsg msg) override;

 private:
  Status write_frame(FrameType type, std::uint32_t seq,
                     const std::vector<std::uint8_t>& payload);

  const std::uint16_t src_rank_;
  const std::uint16_t version_;
  const Socket* socket_;
  const int timeout_ms_;
  std::function<void(Status)> on_error_;
  /// Frame header seq: data frames (PARTIALS) and control frames are
  /// numbered apart on this link.
  std::uint32_t data_seq_ = 0;
  std::uint32_t control_seq_ = 0;
  /// The last PARTIALS frame's encoding; keeps its capacity.
  std::vector<std::uint8_t> partials_bytes_;
  Status error_;  // sticky: once a send fails the link is dead
};

/// Polls every live peer socket from one dedicated thread.
class InboundPoller {
 public:
  struct Peer {
    std::uint32_t rank = 0;
    const Socket* socket = nullptr;
    std::uint16_t accept_version = kWireVersionMax;
    /// Decoder carried over from the handshake. The rendezvous read may
    /// slurp bytes past the Hello/HelloAck (first frames from a peer
    /// whose own links came up first); handing its decoder to the poller
    /// keeps those bytes instead of dropping them with a fresh decoder.
    FrameDecoder decoder{};
  };

  using FrameHandler = std::function<void(std::uint32_t peer, Frame&&)>;
  /// Fired at most once per peer: EOF, reset, or decode poisoning.
  using ErrorHandler = std::function<void(std::uint32_t peer, Status)>;

  InboundPoller(std::vector<Peer> peers, FrameHandler on_frame,
                ErrorHandler on_error);
  ~InboundPoller();

  InboundPoller(const InboundPoller&) = delete;
  InboundPoller& operator=(const InboundPoller&) = delete;

  /// Creates the wake-up eventfd and starts the thread.
  [[nodiscard]] Status start();
  void stop();  // idempotent; wakes and joins the thread

 private:
  struct Link {
    Peer peer;
    FrameDecoder decoder;
    bool dead = false;
  };

  void run();
  void drain(Link& link);
  void decode_buffered(Link& link);

  std::vector<Link> links_;
  FrameHandler on_frame_;
  ErrorHandler on_error_;
  /// eventfd that stop() writes to end the poll loop; -1 before start().
  int wake_fd_ = -1;
  std::thread thread_;
};

}  // namespace gpsa
