// One cluster rank's links to its peers (DESIGN.md §14): the PeerLinks of
// core/peer_links.hpp over sockets. One TransportActor per peer frames
// the rank's combined flushes as PARTIALS frames, and its end of a
// superstep as an END_OF_SUPERSTEP (EOS): its row of the superstep's send
// matrix ({data frames, messages} per destination) and the traffic it
// framed. Messages are logical: a PARTIALS frame counts the messages its
// partials combine, so the matrix, and every counter summed from it, is
// the same as if each message had crossed the wire alone.
// One InboundPoller thread hands every inbound frame to on_frame, which
// splits a PARTIALS frame among the local computers and files an EOS by
// parity. Once the manager has ended this rank's dispatch of s and every
// peer's EOS(s) is in, with the frames and messages its row promises,
// the links sum the whole matrix and send the manager kPeersOver. A link
// delivers in order, so an EOS arrives after every frame it counts: a
// row its frames then disagree with is corrupt.
//
// The hold: a peer that has closed s may send s+1 partials before this
// rank has enqueued COMPUTE_OVER(s); they wait here until open(s+1). A
// peer runs at most one superstep ahead (its s+2 needs my EOS(s+1), sent
// after I closed s), so two parity slots suffice. Failures (a corrupt
// frame, a destination outside the slice, an ABORT, a failed send, the
// loss of a peer that still owes traffic) are recorded once (error())
// and fail the job through its manager.
//
// gpsa-lint: locked-notify
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "actor/actor_system.hpp"
#include "core/peer_links.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire_frame.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

/// One connected peer: a handshaken TCP link, or one end of a socketpair.
struct PeerLink {
  std::uint32_t rank = 0;
  Socket socket;
  std::uint16_t version = kWireVersionMax;
  /// Bytes the handshake read past its frame, handed to the poller.
  FrameDecoder decoder;
};

/// Frames and their wire bytes (header plus payload, as transports send).
struct Traffic {
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  void add(std::size_t payload_len) {
    bytes += kFrameHeaderSize + payload_len;
    frames += 1;
  }
};

/// What every rank sums alike from the send matrices closed so far.
struct MatrixTotals {
  std::uint64_t remote_messages = 0;  // crossed a rank boundary
  std::uint64_t remote_batches = 0;
  Traffic wire;  // every rank's framed traffic
  std::vector<std::uint64_t> superstep_wire_bytes;
  std::vector<std::uint64_t> node_messages_sent;      // [rank]
  std::vector<std::uint64_t> node_messages_received;  // [rank]
};

class RankLinks final : public PeerLinks {
 public:
  /// `links` is indexed by peer rank, the self slot empty; `slices` must
  /// outlive the links. The job's actors get `workers` scheduler workers
  /// (system()). The transports run on one more, so a send blocked on a
  /// full socket stalls no job actor; it cannot deadlock either, since
  /// every peer's poller drains its end on a thread of its own.
  RankLinks(std::uint32_t rank, const OwnerMap& slices,
            std::vector<PeerLink> links, unsigned workers,
            std::size_t message_batch, int timeout_ms);
  ~RankLinks() override;

  [[nodiscard]] Status start() { return poller_->start(); }  // the poller
  ActorSystem& system() { return system_; }

  std::uint32_t rank() const override { return rank_; }
  const OwnerMap& slices() const override { return slices_; }
  void connect(const OwnerMap& routing, std::vector<ComputerActor*> computers,
               ManagerActor* manager) override GPSA_EXCLUDES(mutex_);
  void disconnect() override GPSA_EXCLUDES(mutex_);
  std::size_t max_partials() const override { return max_partials_; }
  void send_partials(unsigned owner, std::uint64_t superstep,
                     std::uint64_t messages,
                     std::vector<Partial>&& partials) override
      GPSA_EXCLUDES(mutex_);
  void end_dispatch(std::uint64_t superstep, std::uint64_t messages) override
      GPSA_EXCLUDES(mutex_);
  void open(std::uint64_t superstep) override GPSA_EXCLUDES(mutex_);

  /// Queues a control frame to `peer`.
  void send(std::uint32_t peer, FrameType type,
            std::vector<std::uint8_t> payload);
  /// Records the run's failure (the first one wins) and fails the job.
  void fail(Status status) GPSA_EXCLUDES(mutex_);
  Status error() const GPSA_EXCLUDES(mutex_);
  MatrixTotals totals() const GPSA_EXCLUDES(mutex_);

  /// Rank 0's end of the final value sync: once every peer's
  /// final_sync-marked VALUES frame is in, moves every VALUES payload
  /// into `out` and their frames into `received`.
  Status wait_values(std::vector<ValuesPayload>& out, Traffic& received)
      GPSA_EXCLUDES(mutex_);
  /// Returns once every frame queued so far has reached the kernel, or a
  /// send failed; a wedged transport times out instead of hanging.
  Status fence();
  /// Tells every peer why this rank gives up (best effort, bounded).
  void abort(const Status& status);

  /// Test-only crash injection: _exit(3) once `superstep`'s own dispatch
  /// is over, before its EOS goes out. Negative disables.
  int crash_at_superstep = -1;

 private:
  struct Peer {
    bool has_eos[2] = {false, false};  // by superstep parity
    EndOfSuperstepPayload eos[2];
    std::uint64_t batches[2] = {0, 0};  // data frames received
    std::uint64_t messages[2] = {0, 0};
    bool final_values = false;  // its final VALUES frame is in (rank 0)
    Status lost;                // set once its link is gone
  };

  void on_frame(std::uint32_t peer, Frame&& frame) GPSA_EXCLUDES(mutex_);
  void on_lost(std::uint32_t peer, Status status) GPSA_EXCLUDES(mutex_);
  /// Counts `peer`'s decoded PARTIALS frame toward its EOS row, then
  /// delivers it, or holds it while its superstep is the next.
  void on_partials(std::uint32_t peer, Result<PartialsPayload>&& decoded)
      GPSA_EXCLUDES(mutex_);
  /// Sends each computer its run of a PARTIALS frame's partials.
  void deliver(PartialsPayload&& in) GPSA_REQUIRES(mutex_);
  void release_held() GPSA_REQUIRES(mutex_);
  /// Sends kPeersOver once the awaited superstep's matrix is whole.
  void close_superstep() GPSA_REQUIRES(mutex_);
  void fail_locked(Status status) GPSA_REQUIRES(mutex_);
  /// Fails the connected job, if the run has failed.
  void tell_manager() GPSA_REQUIRES(mutex_);

  const std::uint32_t rank_;
  const std::uint32_t ranks_;
  const OwnerMap& slices_;
  const int timeout_ms_;
  const std::size_t max_partials_;
  std::vector<PeerLink> links_;

  mutable Mutex mutex_{"RankLinks.state"};
  CondVar cv_;
  const OwnerMap* routing_ GPSA_GUARDED_BY(mutex_) = nullptr;
  std::vector<ComputerActor*> computers_ GPSA_GUARDED_BY(mutex_);
  ManagerActor* manager_ GPSA_GUARDED_BY(mutex_) = nullptr;
  std::vector<Peer> peers_ GPSA_GUARDED_BY(mutex_);  // [rank]; self unused
  EndOfSuperstepPayload own_ GPSA_GUARDED_BY(mutex_);  // superstep in flight
  Traffic framed_ GPSA_GUARDED_BY(mutex_);
  /// own_.superstep's dispatch is over; its matrix is not yet whole.
  bool awaiting_ GPSA_GUARDED_BY(mutex_) = false;
  /// Superstep open_'s partials go to the computers; open_ + 1's wait.
  std::uint64_t open_ GPSA_GUARDED_BY(mutex_) = 0;
  std::vector<PartialsPayload> held_ GPSA_GUARDED_BY(mutex_);
  MatrixTotals totals_ GPSA_GUARDED_BY(mutex_);
  std::vector<ValuesPayload> values_ GPSA_GUARDED_BY(mutex_);
  Traffic values_received_ GPSA_GUARDED_BY(mutex_);
  Status error_ GPSA_GUARDED_BY(mutex_);

  // Declared last: torn down first, while the state above still exists.
  ActorSystem system_;
  ActorSystem transport_system_{1};
  std::vector<TransportActor*> transports_;  // [rank]; self null
  std::optional<InboundPoller> poller_;
};

}  // namespace gpsa
