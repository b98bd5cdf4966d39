// Socket data plane: rendezvous, transports, superstep barrier, final
// value sync (protocol overview in cluster_net.hpp; bit-identity argument
// in node_state.hpp). run_rank is the rank body both entry points share
// (cluster_rank.hpp); run_cluster_rank adds the TCP rendezvous.
//
// The control thread runs dispatch and apply: it applies its own flushes
// inline, and the remote batches the poller has queued both between
// flushes and while it waits for the peers' end-of-superstep markers. No
// wait on the job path is a timed tick: every wait ends on an event (a
// frame, a fence, the poller's eventfd) or on the peer-death deadline.
//
// Interleave safety: all cross-rank per-superstep state below is indexed
// by superstep parity (s % 2) and reset when consumed. That is race-free
// because the barrier orders supersteps two deep — a peer can only send
// superstep s+2 traffic after receiving release(s+1), which the
// coordinator only issues after every rank entered barrier s+1, which
// requires every rank to have consumed its parity slots for s. Frames on
// one TCP link arrive in send order, so a link's BATCH frames always
// precede its end-of-superstep marker.
//
// gpsa-lint: locked-notify
#include "cluster/cluster_net.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "actor/actor_system.hpp"
#include "cluster/cluster_rank.hpp"
#include "cluster/node_state.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/slice_apply.hpp"
#include "graph/csr.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire_frame.hpp"
#include "storage/slot.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gpsa {

/// FNV-1a over the facts every rank must agree on before values can mix
/// (contract in cluster_net.hpp). Format and order are mixed as u64s so
/// e.g. a v2/degree rank and a v1/none rank abort at HELLO instead of
/// exchanging values keyed by different id spaces.
std::uint64_t cluster_graph_fingerprint(std::uint64_t num_vertices,
                                        std::uint64_t num_edges,
                                        std::uint32_t ranks,
                                        const std::string& program_name,
                                        CsrFormat format, CsrOrder order) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>((v >> shift) & 0xffu));
    }
  };
  mix_u64(num_vertices);
  mix_u64(num_edges);
  mix_u64(ranks);
  for (char c : program_name) {
    mix_byte(static_cast<std::uint8_t>(c));
  }
  mix_u64(static_cast<std::uint64_t>(format));
  mix_u64(static_cast<std::uint64_t>(order));
  return h;
}

namespace {

// Crash-injection state for the fork-based crash tests (plain global; set
// only in a freshly forked, single-threaded test child).
int g_net_crash_at_superstep = -1;

/// SyncRelease.superstep value of the rank-0 GO broadcast that opens
/// superstep 0 once the whole mesh is connected.
constexpr std::uint64_t kGoSentinel = ~std::uint64_t{0};

using ValueEntries = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
using Batch = std::vector<VertexMessage>;

Result<std::uint64_t> parse_env_u64(const char* name, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return invalid_argument(std::string(name) + ": invalid number '" + text +
                            "'");
  }
  return static_cast<std::uint64_t>(v);
}

struct Deadline {
  explicit Deadline(int timeout_ms)
      : at(std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms)) {}
  int remaining_ms() const {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at - std::chrono::steady_clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
  }
  std::chrono::steady_clock::time_point at;
};

/// Blocking read of one frame on the control thread (rendezvous only —
/// after bootstrap the poller owns all reads). Bytes read past the frame
/// stay buffered in `decoder`, which is later handed to the poller.
Result<Frame> read_frame_blocking(const Socket& socket, FrameDecoder& decoder,
                                  int timeout_ms) {
  Deadline deadline(timeout_ms);
  Frame frame;
  for (;;) {
    GPSA_ASSIGN_OR_RETURN(const bool ready, decoder.next(frame));
    if (ready) {
      return frame;
    }
    const int remaining = deadline.remaining_ms();
    if (remaining <= 0) {
      return io_error("timed out waiting for a handshake frame");
    }
    GPSA_ASSIGN_OR_RETURN(const bool readable,
                          wait_readable(socket, remaining));
    if (!readable) {
      return io_error("timed out waiting for a handshake frame");
    }
    std::uint8_t buf[4096];
    bool eof = false;
    GPSA_ASSIGN_OR_RETURN(const std::size_t got,
                          recv_nonblocking(socket, buf, sizeof(buf), eof));
    if (got > 0) {
      decoder.feed(buf, got);
    }
    if (eof && got == 0) {
      return failed_precondition("peer closed the connection mid-handshake");
    }
  }
}

/// Direct (non-actor) frame send, for the handshake and for aborting it.
Status send_frame_direct(const Socket& socket, std::uint16_t version,
                         FrameType type, std::uint16_t src_rank,
                         const std::vector<std::uint8_t>& payload,
                         int timeout_ms) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, version, type, src_rank, /*seq=*/0, payload.data(),
               payload.size());
  return send_all(socket, wire.data(), wire.size(), timeout_ms);
}

/// What the coordinator aggregates out of the peers' SyncRequests.
struct SyncAggregate {
  std::uint64_t messages = 0;
  std::uint64_t updates = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_frames = 0;
};

/// All cross-thread state of a rank's control loop: the inbound frame
/// handler (poller thread) and transport error callbacks (scheduler
/// workers) write it; the control thread consumes it under deadline-bound
/// waits. One mutex, notify under lock (locked-notify).
class ControlState {
 public:
  ControlState(std::uint32_t ranks, std::uint32_t self, MessageBatchPool* pool)
      : ranks_(ranks), self_(self), pool_(pool), peers_(ranks) {}

  void init_mirror(std::vector<Payload>&& initial) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    mirror_ = std::move(initial);
  }

  std::vector<Payload> take_mirror() GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return std::move(mirror_);
  }

  /// Rank 0 folding its own final values into the mirror.
  void apply_values_local(const ValueEntries& entries) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    apply_entries(entries);
    cv_.notify_all();
  }

  /// InboundPoller error handler: `peer`'s link is gone (EOF, reset or
  /// decode poisoning). Fatal only to waits that still need something
  /// from that peer (wait_error): after the last barrier a rank closes
  /// its links as soon as it is done, while a slower rank may still wait
  /// for rank 0's release or rank 0 for its final values.
  void peer_lost(std::uint32_t peer, Status status) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (peers_[peer].lost.is_ok()) {
      peers_[peer].lost = std::move(status);
    }
    cv_.notify_all();
  }

  /// First error wins; every waiter observes it.
  void fail(Status status) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    fail_locked(std::move(status));
    cv_.notify_all();
  }

  /// InboundPoller frame handler (poller thread).
  void on_frame(std::uint32_t peer, Frame&& frame) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    switch (frame.header.type) {
      case FrameType::kBatch:
        handle_batch(peer, frame);
        break;
      case FrameType::kEndOfSuperstep: {
        auto pl = EndOfSuperstepPayload::decode(frame.payload);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        PeerSlot& slot = peers_[peer];
        const unsigned q = pl.value().superstep & 1;
        slot.eos[q] = true;
        slot.eos_payload[q] = pl.value();
        break;
      }
      case FrameType::kSyncRequest: {
        auto pl = SyncRequestPayload::decode(frame.payload);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        const unsigned q = pl.value().superstep & 1;
        CoordSlot& slot = coord_[q];
        if (slot.count > 0 && slot.superstep != pl.value().superstep) {
          fail_locked(internal_error(
              "barrier protocol violation: SyncRequest for superstep " +
              std::to_string(pl.value().superstep) + " while aggregating " +
              std::to_string(slot.superstep)));
          break;
        }
        slot.superstep = pl.value().superstep;
        slot.count += 1;
        slot.agg.messages += pl.value().messages_sent;
        slot.agg.updates += pl.value().updates;
        slot.agg.wire_bytes += pl.value().wire_bytes;
        slot.agg.wire_frames += pl.value().wire_frames;
        break;
      }
      case FrameType::kSyncRelease: {
        auto pl = SyncReleasePayload::decode(frame.payload);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        if (pl.value().superstep == kGoSentinel) {
          go_ = true;
          break;
        }
        const unsigned q = pl.value().superstep & 1;
        released_[q] = true;
        release_[q] = pl.value();
        break;
      }
      case FrameType::kValues: {
        auto pl = ValuesPayload::decode(frame.payload);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        apply_entries(pl.value().entries);
        if (pl.value().final_sync != 0) {
          peers_[peer].final_values = true;
        }
        break;
      }
      case FrameType::kAbort:
        fail_locked(failed_precondition(
            "peer rank " + std::to_string(peer) + " aborted the run: " +
            std::string(frame.payload.begin(), frame.payload.end())));
        break;
      default:
        fail_locked(corrupt_data("unexpected " +
                                 std::string(frame_type_name(
                                     frame.header.type)) +
                                 " frame from rank " + std::to_string(peer) +
                                 " after the handshake"));
        break;
    }
    cv_.notify_all();
  }

  /// Waits for the rank-0 GO broadcast.
  Status wait_go(int timeout_ms) GPSA_EXCLUDES(mutex_) {
    Deadline deadline(timeout_ms);
    MutexLock lock(mutex_);
    for (;;) {
      if (go_) {
        return Status::ok();
      }
      GPSA_RETURN_IF_ERROR(wait_error(rank_zero));
      const int remaining = deadline.remaining_ms();
      if (remaining <= 0) {
        return io_error("timed out waiting for the cluster GO broadcast");
      }
      cv_.wait_for_ms(lock, remaining);
    }
  }

  /// Moves the superstep-`superstep` batches that have arrived so far
  /// into `out` (which must be empty) without waiting.
  void take_inbound(std::uint64_t superstep, std::vector<Batch>& out)
      GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    out.swap(inbound_[superstep & 1]);
  }

  /// Hands every superstep-`superstep` batch to `apply` as it arrives
  /// (outside the lock; `ready` is the caller's empty scratch queue) until
  /// every peer's traffic for it is complete — EOS received, frame and
  /// message counts matching — then resets the parity slots.
  template <typename Apply>
  Status drain_inbound(std::uint64_t superstep, int timeout_ms,
                       std::vector<Batch>& ready, Apply&& apply)
      GPSA_EXCLUDES(mutex_) {
    const unsigned q = superstep & 1;
    Deadline deadline(timeout_ms);
    for (;;) {
      bool complete = false;
      {
        MutexLock lock(mutex_);
        for (;;) {
          GPSA_ASSIGN_OR_RETURN(complete, inbound_complete(superstep));
          if (complete || !inbound_[q].empty()) {
            break;
          }
          GPSA_RETURN_IF_ERROR(wait_error(every_peer));
          const int remaining = deadline.remaining_ms();
          if (remaining <= 0) {
            return io_error("timed out waiting for superstep " +
                            std::to_string(superstep) +
                            " traffic (peer dead or stalled?)");
          }
          cv_.wait_for_ms(lock, remaining);
        }
        ready.swap(inbound_[q]);
        if (complete) {
          for (PeerSlot& slot : peers_) {
            slot.eos[q] = false;
            slot.batches[q] = 0;
            slot.messages[q] = 0;
          }
        }
      }
      for (Batch& batch : ready) {
        apply(batch);
      }
      ready.clear();
      if (complete) {
        return Status::ok();
      }
    }
  }

  /// Coordinator: waits for every peer's barrier entry for `superstep`,
  /// returns the aggregate, resets the parity slot.
  Status wait_sync_requests(std::uint64_t superstep, int timeout_ms,
                            SyncAggregate& out) GPSA_EXCLUDES(mutex_) {
    const unsigned q = superstep & 1;
    Deadline deadline(timeout_ms);
    MutexLock lock(mutex_);
    for (;;) {
      if (coord_[q].count == ranks_ - 1) {
        if (coord_[q].superstep != superstep) {
          return internal_error("barrier protocol violation: aggregated "
                                "superstep " +
                                std::to_string(coord_[q].superstep) +
                                " in the parity slot of " +
                                std::to_string(superstep));
        }
        break;
      }
      GPSA_RETURN_IF_ERROR(wait_error(every_peer));
      const int remaining = deadline.remaining_ms();
      if (remaining <= 0) {
        return io_error("timed out waiting for barrier entries of superstep " +
                        std::to_string(superstep) +
                        " (peer dead or stalled?)");
      }
      cv_.wait_for_ms(lock, remaining);
    }
    out = coord_[q].agg;
    coord_[q] = CoordSlot{};
    return Status::ok();
  }

  /// Non-coordinator: waits for the coordinator's release of `superstep`.
  Status wait_release(std::uint64_t superstep, int timeout_ms,
                      SyncReleasePayload& out) GPSA_EXCLUDES(mutex_) {
    const unsigned q = superstep & 1;
    Deadline deadline(timeout_ms);
    MutexLock lock(mutex_);
    for (;;) {
      if (released_[q] && release_[q].superstep == superstep) {
        break;
      }
      GPSA_RETURN_IF_ERROR(wait_error(rank_zero));
      const int remaining = deadline.remaining_ms();
      if (remaining <= 0) {
        return io_error("timed out waiting for the barrier release of "
                        "superstep " +
                        std::to_string(superstep) + " (coordinator dead?)");
      }
      cv_.wait_for_ms(lock, remaining);
    }
    out = release_[q];
    released_[q] = false;
    return Status::ok();
  }

  /// Coordinator, final value sync: waits until every peer delivered its
  /// final_sync-marked Values frame.
  Status wait_final_values(int timeout_ms) GPSA_EXCLUDES(mutex_) {
    Deadline deadline(timeout_ms);
    MutexLock lock(mutex_);
    // Peers still owing their final Values frame.
    auto owing = [](std::uint32_t, const PeerSlot& slot) {
      return !slot.final_values;
    };
    for (;;) {
      bool done = true;
      for (std::uint32_t p = 0; p < ranks_; ++p) {
        done = done && (p == self_ || peers_[p].final_values);
      }
      if (done) {
        return Status::ok();
      }
      GPSA_RETURN_IF_ERROR(wait_error(owing));
      const int remaining = deadline.remaining_ms();
      if (remaining <= 0) {
        return io_error("timed out waiting for the final value sync");
      }
      cv_.wait_for_ms(lock, remaining);
    }
  }

 private:
  struct PeerSlot {
    bool eos[2] = {false, false};
    EndOfSuperstepPayload eos_payload[2];
    /// Batches and messages received (queued in inbound_) per parity.
    std::uint64_t batches[2] = {0, 0};
    std::uint64_t messages[2] = {0, 0};
    /// Its final_sync-marked Values frame arrived (rank 0).
    bool final_values = false;
    /// Set once its link is gone (peer_lost).
    Status lost;
  };

  // Peer selectors for wait_error.
  static bool every_peer(std::uint32_t /*peer*/, const PeerSlot& /*slot*/) {
    return true;
  }
  static bool rank_zero(std::uint32_t peer, const PeerSlot& /*slot*/) {
    return peer == 0;
  }
  struct CoordSlot {
    std::uint64_t superstep = 0;
    std::uint32_t count = 0;
    SyncAggregate agg;
  };

  /// What a wait that still needs something from the peers `needs`
  /// selects fails with: the run-wide error, else the first such peer's
  /// loss, else OK.
  template <typename Needs>
  Status wait_error(Needs&& needs) const GPSA_REQUIRES(mutex_) {
    if (!error_.is_ok()) {
      return error_;
    }
    for (std::uint32_t p = 0; p < ranks_; ++p) {
      if (p != self_ && !peers_[p].lost.is_ok() && needs(p, peers_[p])) {
        return peers_[p].lost;
      }
    }
    return Status::ok();
  }

  /// Whether every peer's superstep-`superstep` traffic has arrived.
  Result<bool> inbound_complete(std::uint64_t superstep) const
      GPSA_REQUIRES(mutex_) {
    const unsigned q = superstep & 1;
    for (std::uint32_t p = 0; p < ranks_; ++p) {
      if (p == self_) {
        continue;
      }
      const PeerSlot& slot = peers_[p];
      if (!slot.eos[q]) {
        return false;
      }
      if (slot.eos_payload[q].superstep != superstep) {
        return internal_error(
            "superstep protocol violation: end-of-superstep " +
            std::to_string(slot.eos_payload[q].superstep) +
            " in the parity slot of " + std::to_string(superstep));
      }
      if (slot.batches[q] != slot.eos_payload[q].batch_frames ||
          slot.messages[q] != slot.eos_payload[q].messages) {
        return false;  // frames still in flight on that link
      }
    }
    return true;
  }

  void fail_locked(Status status) GPSA_REQUIRES(mutex_) {
    if (error_.is_ok()) {
      error_ = std::move(status);
    }
  }

  void handle_batch(std::uint32_t peer, const Frame& frame)
      GPSA_REQUIRES(mutex_) {
    if (frame.payload.size() < 8) {
      fail_locked(corrupt_data("BATCH frame without a superstep tag"));
      return;
    }
    const std::uint64_t superstep = get_u64(frame.payload.data());
    const unsigned q = superstep & 1;
    std::vector<VertexMessage> batch = pool_->lease();
    const Status decoded = decode_batch_into(
        frame.payload.data() + 8, frame.payload.size() - 8, batch);
    if (!decoded.is_ok()) {
      fail_locked(decoded);
      return;
    }
    PeerSlot& slot = peers_[peer];
    slot.batches[q] += 1;
    slot.messages[q] += batch.size();
    inbound_[q].push_back(std::move(batch));
  }

  void apply_entries(const ValueEntries& entries) GPSA_REQUIRES(mutex_) {
    for (const auto& [vertex, payload] : entries) {
      if (vertex >= mirror_.size()) {
        fail_locked(corrupt_data("VALUES entry for vertex " +
                                 std::to_string(vertex) +
                                 " outside the graph"));
        return;
      }
      mirror_[vertex] = payload;
    }
  }

  const std::uint32_t ranks_;
  const std::uint32_t self_;
  MessageBatchPool* pool_;

  Mutex mutex_{"ClusterNet.control"};
  CondVar cv_;
  std::vector<PeerSlot> peers_ GPSA_GUARDED_BY(mutex_);  // [rank]; self unused
  /// Received batches not yet taken by the control thread, per parity.
  std::vector<Batch> inbound_[2] GPSA_GUARDED_BY(mutex_);
  CoordSlot coord_[2] GPSA_GUARDED_BY(mutex_);
  bool released_[2] GPSA_GUARDED_BY(mutex_) = {false, false};
  SyncReleasePayload release_[2] GPSA_GUARDED_BY(mutex_);
  bool go_ GPSA_GUARDED_BY(mutex_) = false;
  std::vector<Payload> mirror_ GPSA_GUARDED_BY(mutex_);
  Status error_ GPSA_GUARDED_BY(mutex_);
};

Status abort_handshake(const Socket& socket, std::uint16_t rank,
                       int timeout_ms, const std::string& reason) {
  std::vector<std::uint8_t> payload(reason.begin(), reason.end());
  // Best-effort: the connection is being torn down either way.
  (void)send_frame_direct(socket, kWireVersionMax, FrameType::kAbort, rank,
                          payload, timeout_ms);
  return failed_precondition("handshake rejected: " + reason);
}

/// Bootstrap: connect to every lower rank, accept from every higher rank
/// on `listener` (bound by the caller; invalid on the highest rank),
/// Hello/HelloAck on each link. Returns links indexed by peer rank (the
/// self slot left empty); the listener closes on return.
Result<std::vector<PeerLink>> run_rendezvous(const ClusterNetOptions& net,
                                             std::uint64_t fingerprint,
                                             Socket listener) {
  std::vector<PeerLink> links(net.ranks);
  const auto self = static_cast<std::uint16_t>(net.rank);
  // Connector side (toward lower ranks): Hello, then wait for HelloAck.
  for (std::uint32_t p = 0; p < net.rank; ++p) {
    GPSA_ASSIGN_OR_RETURN(
        Socket socket,
        tcp_connect_retry(static_cast<std::uint16_t>(net.base_port + p),
                          net.timeout_ms));
    GPSA_RETURN_IF_ERROR(set_nodelay(socket));
    HelloPayload hello;
    hello.version_min = kWireVersionMin;
    hello.version_max = kWireVersionMax;
    hello.rank = net.rank;
    hello.ranks = net.ranks;
    hello.graph_fingerprint = fingerprint;
    GPSA_RETURN_IF_ERROR(send_frame_direct(socket, kWireVersionMax,
                                           FrameType::kHello, self,
                                           hello.encode(), net.timeout_ms));
    PeerLink link;
    link.rank = p;
    link.socket = std::move(socket);
    GPSA_ASSIGN_OR_RETURN(
        Frame frame,
        read_frame_blocking(link.socket, link.decoder, net.timeout_ms));
    if (frame.header.type == FrameType::kAbort) {
      return failed_precondition(
          "rank " + std::to_string(p) + " rejected the handshake: " +
          std::string(frame.payload.begin(), frame.payload.end()));
    }
    if (frame.header.type != FrameType::kHelloAck) {
      return corrupt_data("expected HelloAck from rank " + std::to_string(p) +
                          ", got " + frame_type_name(frame.header.type));
    }
    GPSA_ASSIGN_OR_RETURN(const HelloAckPayload ack,
                          HelloAckPayload::decode(frame.payload));
    if (ack.version < kWireVersionMin || ack.version > kWireVersionMax) {
      return failed_precondition("rank " + std::to_string(p) +
                                 " negotiated unsupported wire version " +
                                 std::to_string(ack.version));
    }
    link.version = ack.version;
    links[p] = std::move(link);
  }
  // Acceptor side (from higher ranks): validate Hello, reply HelloAck.
  const std::uint32_t expected = net.ranks - net.rank - 1;
  for (std::uint32_t i = 0; i < expected; ++i) {
    GPSA_ASSIGN_OR_RETURN(Socket socket,
                          tcp_accept(listener, net.timeout_ms));
    GPSA_RETURN_IF_ERROR(set_nodelay(socket));
    PeerLink link;
    link.socket = std::move(socket);
    GPSA_ASSIGN_OR_RETURN(
        Frame frame,
        read_frame_blocking(link.socket, link.decoder, net.timeout_ms));
    if (frame.header.type != FrameType::kHello) {
      return corrupt_data(std::string("expected Hello on an accepted "
                                      "connection, got ") +
                          frame_type_name(frame.header.type));
    }
    GPSA_ASSIGN_OR_RETURN(const HelloPayload hello,
                          HelloPayload::decode(frame.payload));
    if (hello.ranks != net.ranks) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             "cluster size mismatch: peer expects " +
                                 std::to_string(hello.ranks) + " ranks, not " +
                                 std::to_string(net.ranks));
    }
    if (hello.graph_fingerprint != fingerprint) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             "graph fingerprint mismatch (different dataset, "
                             "program, or partition?)");
    }
    if (hello.rank <= net.rank || hello.rank >= net.ranks) {
      return abort_handshake(
          link.socket, self, net.timeout_ms,
          "unexpected connector rank " + std::to_string(hello.rank));
    }
    if (links[hello.rank].socket.valid()) {
      return abort_handshake(
          link.socket, self, net.timeout_ms,
          "duplicate connection from rank " + std::to_string(hello.rank));
    }
    auto version = negotiate_version(kWireVersionMin, kWireVersionMax,
                                     hello.version_min, hello.version_max);
    if (!version.is_ok()) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             version.status().message());
    }
    link.rank = hello.rank;
    link.version = version.value();
    HelloAckPayload ack;
    ack.version = version.value();
    GPSA_RETURN_IF_ERROR(send_frame_direct(link.socket, version.value(),
                                           FrameType::kHelloAck, self,
                                           ack.encode(), net.timeout_ms));
    links[hello.rank] = std::move(link);
  }
  return links;
}

void send_control(TransportActor* transport, FrameType type,
                  std::vector<std::uint8_t> payload) {
  TransportMsg msg;
  msg.kind = TransportMsg::Kind::kControl;
  msg.type = type;
  msg.payload = std::move(payload);
  transport->send(std::move(msg));
}

/// The final value sync toward rank 0: Values frames chunked under the
/// frame payload cap, the last one carrying the final_sync marker.
void send_final_values(TransportActor* transport, std::uint64_t superstep,
                       const ValueEntries& entries) {
  constexpr std::size_t kMaxEntriesPerFrame = (kMaxFramePayload - 13) / 8;
  std::size_t i = 0;
  do {
    const std::size_t count =
        std::min(kMaxEntriesPerFrame, entries.size() - i);
    ValuesPayload payload;
    payload.superstep = superstep;
    payload.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(i),
                           entries.begin() +
                               static_cast<std::ptrdiff_t>(i + count));
    i += count;
    payload.final_sync = i >= entries.size() ? 1 : 0;
    send_control(transport, FrameType::kValues, payload.encode());
  } while (i < entries.size());
}

/// Blocks until every frame queued on every transport has reached the
/// kernel (or a send failed). The wait is future-based so a wedged
/// transport surfaces as a clean timeout, not a hang.
Status fence_transports(const std::vector<TransportActor*>& transports,
                        int timeout_ms) {
  std::vector<std::future<Status>> fences;
  for (TransportActor* transport : transports) {
    if (transport == nullptr) {
      continue;
    }
    auto promise = std::make_shared<std::promise<Status>>();
    fences.push_back(promise->get_future());
    TransportMsg msg;
    msg.kind = TransportMsg::Kind::kFence;
    msg.fence = std::move(promise);
    transport->send(std::move(msg));
  }
  for (auto& fence : fences) {
    if (fence.wait_for(std::chrono::milliseconds(timeout_ms)) !=
        std::future_status::ready) {
      return io_error("transport fence timed out (send stalled?)");
    }
    GPSA_RETURN_IF_ERROR(fence.get());
  }
  return Status::ok();
}

/// (vertex, payload) pairs for the whole owned slice (final sync).
ValueEntries latest_entries(const ClusterNodeState& state) {
  ValueEntries out;
  out.reserve(state.end - state.begin);
  for (VertexId i = 0; i < state.end - state.begin; ++i) {
    out.emplace_back(state.begin + i,
                     slot_payload(state.values.load(i, state.latest[i])));
  }
  return out;
}

}  // namespace

Result<ClusterNetOptions> ClusterNetOptions::from_env() {
  const char* rank_env = std::getenv("GPSA_CLUSTER_RANK");
  const char* ranks_env = std::getenv("GPSA_CLUSTER_RANKS");
  if (rank_env == nullptr || ranks_env == nullptr) {
    return invalid_argument(
        "cluster mode needs both GPSA_CLUSTER_RANK and GPSA_CLUSTER_RANKS");
  }
  ClusterNetOptions net;
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t rank,
                        parse_env_u64("GPSA_CLUSTER_RANK", rank_env));
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t ranks,
                        parse_env_u64("GPSA_CLUSTER_RANKS", ranks_env));
  if (ranks == 0 || rank >= ranks) {
    return invalid_argument("GPSA_CLUSTER_RANK " + std::to_string(rank) +
                            " out of range for GPSA_CLUSTER_RANKS " +
                            std::to_string(ranks));
  }
  net.rank = static_cast<std::uint32_t>(rank);
  net.ranks = static_cast<std::uint32_t>(ranks);
  if (const char* port = std::getenv("GPSA_CLUSTER_PORT")) {
    GPSA_ASSIGN_OR_RETURN(const std::uint64_t value,
                          parse_env_u64("GPSA_CLUSTER_PORT", port));
    if (value == 0 || value > 65535) {
      return invalid_argument("GPSA_CLUSTER_PORT out of range: " +
                              std::to_string(value));
    }
    net.base_port = static_cast<std::uint16_t>(value);
  }
  if (net.base_port + static_cast<std::uint64_t>(net.ranks) > 65536) {
    return invalid_argument("GPSA_CLUSTER_PORT + GPSA_CLUSTER_RANKS exceeds "
                            "the port range");
  }
  if (const char* timeout = std::getenv("GPSA_NET_TIMEOUT_MS")) {
    GPSA_ASSIGN_OR_RETURN(const std::uint64_t value,
                          parse_env_u64("GPSA_NET_TIMEOUT_MS", timeout));
    if (value == 0 || value > 3600 * 1000) {
      return invalid_argument("GPSA_NET_TIMEOUT_MS out of range: " +
                              std::to_string(value));
    }
    net.timeout_ms = static_cast<int>(value);
  }
  return net;
}

Result<ClusterPlan> make_cluster_plan(const EdgeList& graph,
                                      const Program& program,
                                      const ClusterOptions& options,
                                      unsigned parts) {
  Csr csr = Csr::from_edges(graph);
  const VertexId n = csr.num_vertices();
  std::vector<EdgeCount> degrees(n);
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = csr.out_degree(v);
  }
  const auto intervals =
      make_intervals_from_degrees(degrees, parts, options.partition);
  GPSA_CHECK(!intervals.empty());

  GPSA_ASSIGN_OR_RETURN(const IoConfig io_config, options.io.resolve());
  GPSA_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> backend,
                        IoBackend::create(io_config));
  std::optional<ScratchDir> scratch;
  if (options.value_store_dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(scratch, ScratchDir::create("cluster"));
  } else {
    std::error_code ec;
    std::filesystem::create_directories(options.value_store_dir, ec);
    if (ec) {
      return io_error("cluster: cannot create value store dir " +
                      options.value_store_dir + ": " + ec.message());
    }
  }
  std::string store_dir =
      scratch.has_value() ? scratch->path() : options.value_store_dir;

  std::uint64_t budget = program.max_supersteps();
  if (options.max_supersteps != 0) {
    budget = std::min(budget, options.max_supersteps);
  }
  return ClusterPlan{std::move(csr),
                     OwnerMap::make_range_from_intervals(intervals),
                     budget,
                     std::move(backend),
                     std::move(store_dir),
                     std::move(scratch)};
}

Status ClusterPlan::init_node(unsigned node, const Program& program,
                              ClusterNodeState& state) const {
  return state.init(owners.range_begin(node), owners.range_end(node), program,
                    csr.num_vertices(), *backend,
                    store_dir + "/node" + std::to_string(node) + ".values");
}

Result<ClusterRunResult> run_cluster_rank(const EdgeList& graph,
                                          const Program& program,
                                          const ClusterOptions& options,
                                          const ClusterNetOptions& net) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("run_cluster_rank: empty graph");
  }
  if (net.ranks == 0 || net.rank >= net.ranks) {
    return invalid_argument("run_cluster_rank: rank " +
                            std::to_string(net.rank) +
                            " out of range for ranks " +
                            std::to_string(net.ranks));
  }

  WallTimer timer;
  // Listen before building anything: a peer that finishes its own build
  // first then waits in the accept backlog instead of being refused and
  // backing off.
  Socket listener;
  if (net.rank + 1 < net.ranks) {
    GPSA_ASSIGN_OR_RETURN(
        listener,
        tcp_listen(static_cast<std::uint16_t>(net.base_port + net.rank)));
  }
  GPSA_ASSIGN_OR_RETURN(const ClusterPlan plan,
                        make_cluster_plan(graph, program, options, net.ranks));
  if (plan.owners.parts() != net.ranks) {
    return invalid_argument("run_cluster_rank: the partition produced " +
                            std::to_string(plan.owners.parts()) +
                            " slices for " + std::to_string(net.ranks) +
                            " ranks (graph too small for the rank count?)");
  }
  ClusterNodeState state;
  GPSA_RETURN_IF_ERROR(plan.init_node(net.rank, program, state));

  // The cluster engine builds its CSR in memory, so the storage config
  // every rank runs under is whatever the environment resolves to.
  const std::uint64_t fingerprint = cluster_graph_fingerprint(
      n, graph.num_edges(), net.ranks, program.name(),
      resolve_csr_format(std::nullopt), resolve_csr_order(std::nullopt));
  GPSA_ASSIGN_OR_RETURN(std::vector<PeerLink> links,
                        run_rendezvous(net, fingerprint, std::move(listener)));
  GPSA_ASSIGN_OR_RETURN(
      ClusterRunResult result,
      run_rank(plan, program, options, net, std::move(links), state, {}));
  result.elapsed_seconds = timer.elapsed_seconds();
  if (!options.value_store_dir.empty()) {
    GPSA_RETURN_IF_ERROR(state.values.checkpoint(result.supersteps));
  }
  return result;
}

Result<ClusterRunResult> run_rank(
    const ClusterPlan& plan, const Program& program,
    const ClusterOptions& options, const ClusterNetOptions& net,
    std::vector<PeerLink> links, ClusterNodeState& state,
    const std::function<void(const Status&)>& on_abort) {
  const VertexId n = plan.csr.num_vertices();
  MessageBatchPool pool(options.message_batch);
  ControlState ctrl(net.ranks, net.rank, &pool);
  if (net.rank == 0) {
    // The final value sync overwrites every entry.
    ctrl.init_mirror(std::vector<Payload>(n));
  }

  WireMetrics metrics;
  // One scheduler worker runs every transport of the rank. A send blocked
  // on a full socket cannot deadlock: every peer's poller drains its end
  // on a thread of its own.
  ActorSystem system(1);
  std::vector<TransportActor*> transports(net.ranks, nullptr);
  for (std::uint32_t p = 0; p < net.ranks; ++p) {
    if (p == net.rank) {
      continue;
    }
    transports[p] = system.spawn<TransportActor>(
        static_cast<std::uint16_t>(net.rank), links[p].version,
        &links[p].socket, &pool, &metrics, net.timeout_ms,
        [&ctrl, p](Status status) {
          ctrl.fail(failed_precondition(
              "send to peer rank " + std::to_string(p) + " failed: " +
              status.message()));
        });
  }

  std::vector<InboundPoller::Peer> poll_peers;
  for (std::uint32_t p = 0; p < net.ranks; ++p) {
    if (p == net.rank) {
      continue;
    }
    InboundPoller::Peer peer;
    peer.rank = p;
    peer.socket = &links[p].socket;
    peer.accept_version = links[p].version;
    peer.decoder = std::move(links[p].decoder);
    poll_peers.push_back(std::move(peer));
  }
  InboundPoller poller(
      std::move(poll_peers),
      [&ctrl](std::uint32_t peer, Frame&& frame) {
        ctrl.on_frame(peer, std::move(frame));
      },
      [&ctrl](std::uint32_t peer, Status status) {
        ctrl.peer_lost(peer, failed_precondition(
                                 "peer rank " + std::to_string(peer) +
                                 " died: " + status.message()));
      });
  const Status poller_started = poller.start();

  // Any mid-run failure: tell the survivors why (best-effort), then tear
  // down. The fence bounds how long the abort frames may take to flush.
  auto abort_run = [&](Status status) -> Status {
    if (on_abort) {
      on_abort(status);
    }
    for (TransportActor* transport : transports) {
      if (transport != nullptr) {
        send_control(transport, FrameType::kAbort,
                     std::vector<std::uint8_t>(status.message().begin(),
                                               status.message().end()));
      }
    }
    (void)fence_transports(transports, net.timeout_ms);
    poller.stop();
    system.shutdown();
    return status;
  };
  if (!poller_started.is_ok()) {
    return abort_run(poller_started);
  }

  // GO: rank 0's rendezvous finishing means every rank reached rank 0,
  // and a rank only proceeds once its own links are also up.
  if (net.rank == 0) {
    SyncReleasePayload go;
    go.superstep = kGoSentinel;
    for (std::uint32_t p = 1; p < net.ranks; ++p) {
      send_control(transports[p], FrameType::kSyncRelease, go.encode());
    }
  } else {
    const Status go = ctrl.wait_go(net.timeout_ms);
    if (!go.is_ok()) {
      return abort_run(go);
    }
  }

  NodeDispatchCore core(net.rank, state, plan.csr, program, plan.owners, pool,
                        options.message_batch);
  SliceApply slice_apply(state.values, program, state.latest, state.worklist,
                         /*orig_ids=*/nullptr, /*base=*/state.begin,
                         state.begin, state.end - state.begin);

  struct LoopOutcome {
    std::uint64_t supersteps = 0;
    std::uint64_t total_messages = 0;
    bool converged = false;
    std::uint64_t own_messages = 0;
    std::uint64_t own_received = 0;
    std::uint64_t remote_messages = 0;
    std::uint64_t remote_batches = 0;
    std::uint64_t bytes_on_wire = 0;
    std::uint64_t frames_sent = 0;
    std::vector<std::uint64_t> superstep_wire_bytes;
  };
  std::vector<std::uint64_t> batches_to(net.ranks, 0);
  std::vector<std::uint64_t> messages_to(net.ranks, 0);
  std::vector<Batch> ready;  // scratch queue of arrived remote batches
  std::uint64_t prev_bytes = 0;
  std::uint64_t prev_frames = 0;

  auto run_loop = [&]() -> Result<LoopOutcome> {
    LoopOutcome out;
    if (plan.budget == 0) {
      return out;  // every rank computes this identically — no barrier
    }
    for (std::uint64_t s = 0;; ++s) {
      std::fill(batches_to.begin(), batches_to.end(), std::uint64_t{0});
      std::fill(messages_to.begin(), messages_to.end(), std::uint64_t{0});
      auto apply = [&](Batch& batch) {
        out.own_received += batch.size();
        slice_apply.apply(batch, s);
        pool.recycle(std::move(batch));
      };
      const NodeDispatchCore::IterationStats stats = core.run_iteration(
          s, [&](unsigned dst, std::uint32_t seq, Batch&& batch) {
            if (dst == net.rank) {
              apply(batch);
            } else {
              batches_to[dst] += 1;
              messages_to[dst] += batch.size();
              TransportMsg msg;
              msg.kind = TransportMsg::Kind::kBatch;
              msg.superstep = s;
              msg.seq = seq;
              msg.batch = std::move(batch);
              transports[dst]->send(std::move(msg));
            }
            // Apply whatever the peers have delivered meanwhile.
            ctrl.take_inbound(s, ready);
            for (Batch& arrived : ready) {
              apply(arrived);
            }
            ready.clear();
          });
      if (g_net_crash_at_superstep >= 0 &&
          static_cast<std::uint64_t>(g_net_crash_at_superstep) == s) {
        ::_exit(3);  // crash injection: die mid-superstep, before EOS
      }
      for (std::uint32_t p = 0; p < net.ranks; ++p) {
        if (p == net.rank) {
          continue;
        }
        EndOfSuperstepPayload eos;
        eos.superstep = s;
        eos.batch_frames = batches_to[p];
        eos.messages = messages_to[p];
        send_control(transports[p], FrameType::kEndOfSuperstep, eos.encode());
      }
      GPSA_RETURN_IF_ERROR(
          ctrl.drain_inbound(s, net.timeout_ms, ready, apply));
      // Every message of the superstep is in: publish the exact sums.
      const std::uint64_t updates = slice_apply.finish(s);
      GPSA_RETURN_IF_ERROR(fence_transports(transports, net.timeout_ms));
      const std::uint64_t cur_bytes = metrics.bytes.load();
      const std::uint64_t cur_frames = metrics.frames.load();
      const std::uint64_t delta_bytes = cur_bytes - prev_bytes;
      const std::uint64_t delta_frames = cur_frames - prev_frames;
      prev_bytes = cur_bytes;
      prev_frames = cur_frames;
      out.own_messages += stats.messages;
      out.remote_messages += stats.remote_messages;
      out.remote_batches += stats.remote_batches;

      bool halt = false;
      bool converged = false;
      std::uint64_t total_messages = 0;
      std::uint64_t superstep_wire = 0;
      if (net.rank == 0) {
        SyncAggregate agg;
        if (net.ranks > 1) {
          GPSA_RETURN_IF_ERROR(
              ctrl.wait_sync_requests(s, net.timeout_ms, agg));
        }
        total_messages = agg.messages + stats.messages;
        superstep_wire = agg.wire_bytes + delta_bytes;
        out.frames_sent += agg.wire_frames + delta_frames;
        converged = (total_messages == 0);
        halt = converged || (s + 1 >= plan.budget);
        SyncReleasePayload release;
        release.superstep = s;
        release.halt = halt ? 1 : 0;
        release.converged = converged ? 1 : 0;
        release.total_messages = total_messages;
        for (std::uint32_t p = 1; p < net.ranks; ++p) {
          send_control(transports[p], FrameType::kSyncRelease,
                       release.encode());
        }
      } else {
        SyncRequestPayload request;
        request.superstep = s;
        request.messages_sent = stats.messages;
        request.updates = updates;
        request.wire_bytes = delta_bytes;
        request.wire_frames = delta_frames;
        send_control(transports[0], FrameType::kSyncRequest,
                     request.encode());
        SyncReleasePayload release;
        GPSA_RETURN_IF_ERROR(ctrl.wait_release(s, net.timeout_ms, release));
        halt = release.halt != 0;
        converged = release.converged != 0;
        total_messages = release.total_messages;
        superstep_wire = delta_bytes;
        out.frames_sent += delta_frames;
      }
      out.superstep_wire_bytes.push_back(superstep_wire);
      out.bytes_on_wire += superstep_wire;
      out.total_messages += total_messages;
      out.supersteps = s + 1;
      if (halt) {
        out.converged = converged;
        break;
      }
    }
    return out;
  };

  auto loop_result = [&]() -> Result<LoopOutcome> {
    try {
      return run_loop();
    } catch (const std::exception& e) {
      // A sum left the exact fold's range, or a program hook threw: fail
      // the run like any other mid-run error, so the peers hear of it.
      return internal_error("cluster rank " + std::to_string(net.rank) +
                            ": " + e.what());
    }
  }();
  if (!loop_result.is_ok()) {
    return abort_run(loop_result.status());
  }
  LoopOutcome outcome = std::move(loop_result).value();

  // Final value sync: every rank's slice lands in rank 0's mirror.
  if (net.rank == 0) {
    ctrl.apply_values_local(latest_entries(state));
    if (net.ranks > 1) {
      const Status synced = ctrl.wait_final_values(net.timeout_ms);
      if (!synced.is_ok()) {
        return abort_run(synced);
      }
    }
  } else {
    send_final_values(transports[0], outcome.supersteps,
                      latest_entries(state));
  }

  // Quiesce: flush every queued frame, then account the post-barrier tail
  // (final values / last release) to the sender's own totals only.
  const Status quiesced = fence_transports(transports, net.timeout_ms);
  if (!quiesced.is_ok()) {
    return abort_run(quiesced);
  }
  outcome.bytes_on_wire += metrics.bytes.load() - prev_bytes;
  outcome.frames_sent += metrics.frames.load() - prev_frames;
  poller.stop();
  system.shutdown();

  ClusterRunResult result;
  result.supersteps = outcome.supersteps;
  result.total_messages = outcome.total_messages;
  result.remote_messages = outcome.remote_messages;
  result.remote_batches = outcome.remote_batches;
  result.converged = outcome.converged;
  result.bytes_on_wire = outcome.bytes_on_wire;
  result.frames_sent = outcome.frames_sent;
  result.superstep_wire_bytes = std::move(outcome.superstep_wire_bytes);
  if (net.rank == 0) {
    result.values = ctrl.take_mirror();
  }
  result.node_messages_sent.assign(net.ranks, 0);
  result.node_messages_received.assign(net.ranks, 0);
  result.node_messages_sent[net.rank] = outcome.own_messages;
  result.node_messages_received[net.rank] = outcome.own_received;
  return result;
}

void set_cluster_net_crash_at_superstep(int superstep) {
  g_net_crash_at_superstep = superstep;
}

}  // namespace gpsa
