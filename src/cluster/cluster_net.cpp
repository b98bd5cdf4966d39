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
// The barrier is END_OF_SUPERSTEP alone. A rank sends the same EOS(s) to
// every peer: its row of the superstep's send matrix and the wire traffic
// it framed. Once it has drained every peer's EOS(s) it holds the whole
// matrix, and derives the halt decision and every cluster-wide counter
// from it exactly as every other rank does; no rank coordinates.
//
// Interleave safety: all cross-rank per-superstep state below is indexed
// by superstep parity (s % 2) and reset when consumed. That is race-free
// because a peer runs at most one superstep ahead: it sends superstep s+2
// traffic only after it drained s+1, which needs my EOS(s+1), which I
// send only after I have drained s and reset its slots. Frames on one
// link arrive in send order, so a link's BATCH frames always precede its
// end-of-superstep marker.
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

/// Frames and the bytes they put on the wire, by the transport's own
/// formula: the frame header plus the payload.
struct Traffic {
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  void add(std::size_t payload_len) {
    bytes += kFrameHeaderSize + payload_len;
    frames += 1;
  }
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
  /// from that peer (wait_error): a rank closes its links as soon as it
  /// is done, while a slower rank may still drain the last superstep or
  /// rank 0 wait for the final values.
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
        auto pl = EndOfSuperstepPayload::decode(frame.payload, ranks_);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        PeerSlot& slot = peers_[peer];
        const unsigned q = pl.value().superstep & 1;
        slot.eos[q] = true;
        slot.eos_payload[q] = std::move(pl).value();
        break;
      }
      case FrameType::kValues: {
        auto pl = ValuesPayload::decode(frame.payload);
        if (!pl.is_ok()) {
          fail_locked(pl.status());
          break;
        }
        apply_entries(pl.value().entries);
        final_sync_.add(frame.payload.size());
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
  /// message counts matching — then moves each peer's EOS to
  /// `rows[peer]` and resets the parity slots. Only the loss of a peer
  /// that still owes traffic fails the drain: one that has delivered may
  /// halt and close its links before this rank is done.
  template <typename Apply>
  Status drain_inbound(std::uint64_t superstep, int timeout_ms,
                       std::vector<Batch>& ready,
                       std::vector<EndOfSuperstepPayload>& rows,
                       Apply&& apply) GPSA_EXCLUDES(mutex_) {
    const unsigned q = superstep & 1;
    auto owing = [this, q](std::uint32_t, const PeerSlot& slot) {
      return !delivered(slot, q);
    };
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
          GPSA_RETURN_IF_ERROR(wait_error(owing));
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
          for (std::uint32_t p = 0; p < ranks_; ++p) {
            PeerSlot& slot = peers_[p];
            if (p != self_) {
              rows[p] = std::move(slot.eos_payload[q]);
            }
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

  /// Rank 0, final value sync: waits until every peer delivered its
  /// final_sync-marked Values frame; returns the frames received.
  Result<Traffic> wait_final_values(int timeout_ms) GPSA_EXCLUDES(mutex_) {
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
        return final_sync_;
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

  /// Whether `slot`'s peer has delivered all its traffic for parity `q`:
  /// its EOS, and as many batches and messages as its row says it sent
  /// this rank.
  bool delivered(const PeerSlot& slot, unsigned q) const {
    if (!slot.eos[q]) {
      return false;
    }
    const EndOfSuperstepPayload::Cell& sent = slot.eos_payload[q].row[self_];
    return slot.batches[q] == sent.batch_frames &&
           slot.messages[q] == sent.messages;
  }

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
      if (slot.eos[q] && slot.eos_payload[q].superstep != superstep) {
        return internal_error(
            "superstep protocol violation: end-of-superstep " +
            std::to_string(slot.eos_payload[q].superstep) +
            " in the parity slot of " + std::to_string(superstep));
      }
      if (!delivered(slot, q)) {
        return false;  // EOS or frames still in flight on that link
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
  std::vector<Payload> mirror_ GPSA_GUARDED_BY(mutex_);
  /// Values frames received (rank 0's share of the final value sync).
  Traffic final_sync_ GPSA_GUARDED_BY(mutex_);
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
/// Returns the frames sent.
Traffic send_final_values(TransportActor* transport, std::uint64_t superstep,
                          const ValueEntries& entries) {
  Traffic sent;
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
    std::vector<std::uint8_t> bytes = payload.encode();
    sent.add(bytes.size());
    send_control(transport, FrameType::kValues, std::move(bytes));
  } while (i < entries.size());
  return sent;
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
  const std::uint32_t ranks = net.ranks;
  MessageBatchPool pool(options.message_batch);
  ControlState ctrl(ranks, net.rank, &pool);
  if (net.rank == 0) {
    // The final value sync overwrites every entry.
    ctrl.init_mirror(std::vector<Payload>(n));
  }

  // One scheduler worker runs every transport of the rank. A send blocked
  // on a full socket cannot deadlock: every peer's poller drains its end
  // on a thread of its own.
  ActorSystem system(1);
  std::vector<TransportActor*> transports(ranks, nullptr);
  for (std::uint32_t p = 0; p < ranks; ++p) {
    if (p == net.rank) {
      continue;
    }
    transports[p] = system.spawn<TransportActor>(
        static_cast<std::uint16_t>(net.rank), links[p].version,
        &links[p].socket, &pool, net.timeout_ms, [&ctrl, p](Status status) {
          ctrl.fail(failed_precondition(
              "send to peer rank " + std::to_string(p) + " failed: " +
              status.message()));
        });
  }

  std::vector<InboundPoller::Peer> poll_peers;
  for (std::uint32_t p = 0; p < ranks; ++p) {
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

  NodeDispatchCore core(state, plan.csr, program, plan.owners, pool,
                        options.message_batch);
  SliceApply slice_apply(state.values, program, state.latest, state.worklist,
                         /*orig_ids=*/nullptr, /*base=*/state.begin,
                         state.begin, state.end - state.begin);

  ClusterRunResult result;
  result.node_messages_sent.assign(ranks, 0);
  result.node_messages_received.assign(ranks, 0);
  // The superstep's send matrix: rows[r] is rank r's EOS, this rank's own
  // included.
  std::vector<EndOfSuperstepPayload> rows(ranks);
  std::vector<Batch> ready;  // scratch queue of arrived remote batches

  auto run_loop = [&]() -> Status {
    if (plan.budget == 0) {
      return Status::ok();  // every rank computes this identically
    }
    for (std::uint64_t s = 0;; ++s) {
      EndOfSuperstepPayload& own = rows[net.rank];
      own.superstep = s;
      own.row.assign(ranks, EndOfSuperstepPayload::Cell{});
      Traffic framed;  // what this rank puts on the wire this superstep
      auto apply = [&](Batch& batch) {
        slice_apply.apply(batch, s);
        pool.recycle(std::move(batch));
      };
      core.run_iteration(
          s, [&](unsigned dst, std::uint32_t seq, Batch&& batch) {
            own.row[dst].batch_frames += 1;
            own.row[dst].messages += batch.size();
            if (dst == net.rank) {
              apply(batch);
            } else {
              framed.add(8 + batch.size() * sizeof(VertexMessage));
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
      // Every peer gets the same EOS, which counts its own frames too.
      for (std::uint32_t p = 1; p < ranks; ++p) {
        framed.add(EndOfSuperstepPayload::encoded_size(ranks));
      }
      own.wire_bytes = framed.bytes;
      own.wire_frames = framed.frames;
      const std::vector<std::uint8_t> eos = own.encode();
      for (TransportActor* transport : transports) {
        if (transport != nullptr) {
          send_control(transport, FrameType::kEndOfSuperstep, eos);
        }
      }
      GPSA_RETURN_IF_ERROR(
          ctrl.drain_inbound(s, net.timeout_ms, ready, rows, apply));
      // Every message of the superstep is in: publish the exact sums.
      slice_apply.finish(s);

      // Every rank tallies the same matrix, so every rank decides alike.
      std::uint64_t messages = 0;
      std::uint64_t wire_bytes = 0;
      for (std::uint32_t from = 0; from < ranks; ++from) {
        wire_bytes += rows[from].wire_bytes;
        result.frames_sent += rows[from].wire_frames;
        for (std::uint32_t to = 0; to < ranks; ++to) {
          const EndOfSuperstepPayload::Cell& cell = rows[from].row[to];
          messages += cell.messages;
          result.node_messages_sent[from] += cell.messages;
          result.node_messages_received[to] += cell.messages;
          if (from != to) {
            result.remote_messages += cell.messages;
            result.remote_batches += cell.batch_frames;
          }
        }
      }
      result.superstep_wire_bytes.push_back(wire_bytes);
      result.bytes_on_wire += wire_bytes;
      result.total_messages += messages;
      result.supersteps = s + 1;
      result.converged = messages == 0;
      if (result.converged || s + 1 >= plan.budget) {
        return Status::ok();
      }
    }
  };

  const Status looped = [&]() -> Status {
    try {
      return run_loop();
    } catch (const std::exception& e) {
      // A sum left the exact fold's range, or a program hook threw: fail
      // the run like any other mid-run error, so the peers hear of it.
      return internal_error("cluster rank " + std::to_string(net.rank) +
                            ": " + e.what());
    }
  }();
  if (!looped.is_ok()) {
    return abort_run(looped);
  }

  // Final value sync: every rank's slice lands in rank 0's mirror. Its
  // frames count toward the totals of the rank that sent or received them.
  Traffic tail;
  if (net.rank == 0) {
    ctrl.apply_values_local(latest_entries(state));
    if (ranks > 1) {
      auto received = ctrl.wait_final_values(net.timeout_ms);
      if (!received.is_ok()) {
        return abort_run(received.status());
      }
      tail = received.value();
    }
  } else {
    tail = send_final_values(transports[0], result.supersteps,
                             latest_entries(state));
  }
  result.bytes_on_wire += tail.bytes;
  result.frames_sent += tail.frames;

  // Quiesce: every queued frame reaches the kernel before the links close.
  const Status quiesced = fence_transports(transports, net.timeout_ms);
  if (!quiesced.is_ok()) {
    return abort_run(quiesced);
  }
  poller.stop();
  system.shutdown();
  if (net.rank == 0) {
    result.values = ctrl.take_mirror();
  }
  return result;
}

void set_cluster_net_crash_at_superstep(int superstep) {
  g_net_crash_at_superstep = superstep;
}

}  // namespace gpsa
