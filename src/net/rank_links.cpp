// Protocol in rank_links.hpp. One mutex guards every cross-thread state
// change; what it sends to actors from under it only enqueues.
//
// gpsa-lint: locked-notify
#include "net/rank_links.hpp"

#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>

#include "core/computer.hpp"
#include "core/manager.hpp"
#include "util/check.hpp"

namespace gpsa {
namespace {

/// Partials in a PARTIALS frame of at most one pool batch's bytes (one at
/// least), so the receiver gets a superstep's partials in pipelined
/// chunks.
std::size_t partials_per_frame(std::size_t message_batch) {
  const std::size_t bytes = message_batch * sizeof(VertexMessage);
  return bytes >= PartialsPayload::kFixedBytes + PartialsPayload::kPartialBytes
             ? (bytes - PartialsPayload::kFixedBytes) /
                   PartialsPayload::kPartialBytes
             : 1;
}

}  // namespace

RankLinks::RankLinks(std::uint32_t rank, const OwnerMap& slices,
                     std::vector<PeerLink> links, unsigned workers,
                     std::size_t message_batch, int timeout_ms)
    : rank_(rank),
      ranks_(slices.parts()),
      slices_(slices),
      timeout_ms_(timeout_ms),
      max_partials_(partials_per_frame(message_batch)),
      links_(std::move(links)),
      peers_(ranks_),
      system_(workers),
      transports_(ranks_, nullptr) {
  own_.row.assign(ranks_, {});
  totals_.node_messages_sent.assign(ranks_, 0);
  totals_.node_messages_received.assign(ranks_, 0);
  std::vector<InboundPoller::Peer> poll_peers;
  for (std::uint32_t p = 0; p < ranks_; ++p) {
    if (p == rank_) {
      continue;
    }
    transports_[p] = transport_system_.spawn<TransportActor>(
        static_cast<std::uint16_t>(rank_), links_[p].version,
        &links_[p].socket, timeout_ms_, [this, p](Status status) {
          fail(failed_precondition("send to peer rank " + std::to_string(p) +
                                   " failed: " + status.message()));
        });
    InboundPoller::Peer peer;
    peer.rank = p;
    peer.socket = &links_[p].socket;
    peer.accept_version = links_[p].version;
    peer.decoder = std::move(links_[p].decoder);
    poll_peers.push_back(std::move(peer));
  }
  auto frame = [this](std::uint32_t peer, Frame&& f) {
    on_frame(peer, std::move(f));
  };
  auto lost = [this](std::uint32_t peer, Status s) {
    on_lost(peer, std::move(s));
  };
  poller_.emplace(std::move(poll_peers), frame, lost);
}

RankLinks::~RankLinks() {
  poller_->stop();
  transport_system_.shutdown();
  system_.shutdown();
}

void RankLinks::connect(const OwnerMap& routing,
                        std::vector<ComputerActor*> computers,
                        ManagerActor* manager) {
  MutexLock lock(mutex_);
  routing_ = &routing;
  computers_ = std::move(computers);
  manager_ = manager;
  tell_manager();  // the run may have failed before the job connected
  release_held();  // superstep 0's early arrivals
}

void RankLinks::disconnect() {
  MutexLock lock(mutex_);
  routing_ = nullptr;
  computers_.clear();
  manager_ = nullptr;
  awaiting_ = false;
}

void RankLinks::send_partials(unsigned owner, std::uint64_t superstep,
                              std::uint64_t messages,
                              std::vector<Partial>&& partials) {
  TransportMsg msg;
  msg.kind = TransportMsg::Kind::kPartials;
  msg.partials.superstep = superstep;
  msg.partials.messages = messages;
  msg.partials.partials = std::move(partials);
  std::uint32_t peer = 0;
  {
    MutexLock lock(mutex_);
    if (routing_ == nullptr) {  // a failed job's dispatcher, still running
      return;
    }
    peer = slices_.owner_of(routing_->range_begin(owner));
    own_.row[peer].batch_frames += 1;
    own_.row[peer].messages += messages;
    framed_.add(PartialsPayload::kFixedBytes +
                PartialsPayload::kPartialBytes * msg.partials.partials.size());
  }
  transports_[peer]->send(std::move(msg));
}

void RankLinks::end_dispatch(std::uint64_t superstep, std::uint64_t messages) {
  MutexLock lock(mutex_);
  own_.superstep = superstep;
  // The messages that stayed home never became frames.
  std::uint64_t remote = 0;
  for (const EndOfSuperstepPayload::Cell& cell : own_.row) {
    remote += cell.messages;
  }
  own_.row[rank_].messages = messages - remote;
  // Every peer gets the same EOS, which counts its own frames too.
  for (std::uint32_t p = 1; p < ranks_; ++p) {
    framed_.add(EndOfSuperstepPayload::encoded_size(ranks_));
  }
  own_.wire_bytes = framed_.bytes;
  own_.wire_frames = framed_.frames;
  if (crash_at_superstep >= 0 &&
      static_cast<std::uint64_t>(crash_at_superstep) == superstep) {
    ::_exit(3);  // crash injection: die mid-superstep, before EOS
  }
  const std::vector<std::uint8_t> eos = own_.encode();
  for (std::uint32_t p = 0; p < ranks_; ++p) {
    if (p != rank_) {
      send(p, FrameType::kEndOfSuperstep, eos);
    }
  }
  awaiting_ = true;
  close_superstep();
}

void RankLinks::open(std::uint64_t superstep) {
  MutexLock lock(mutex_);
  open_ = superstep;
  release_held();
}

void RankLinks::send(std::uint32_t peer, FrameType type,
                     std::vector<std::uint8_t> payload) {
  TransportMsg msg;
  msg.type = type;
  msg.payload = std::move(payload);
  transports_[peer]->send(std::move(msg));
}

void RankLinks::fail(Status status) {
  MutexLock lock(mutex_);
  fail_locked(std::move(status));
  cv_.notify_all();
}

Status RankLinks::error() const {
  MutexLock lock(mutex_);
  return error_;
}

MatrixTotals RankLinks::totals() const {
  MutexLock lock(mutex_);
  return totals_;
}

Status RankLinks::wait_values(std::vector<ValuesPayload>& out,
                              Traffic& received) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  MutexLock lock(mutex_);
  for (;;) {
    GPSA_RETURN_IF_ERROR(error_);
    bool done = true;
    for (std::uint32_t p = 0; p < ranks_; ++p) {
      if (p != rank_ && !peers_[p].final_values) {
        GPSA_RETURN_IF_ERROR(peers_[p].lost);  // it still owes its values
        done = false;
      }
    }
    if (done) {
      out = std::move(values_);
      received = values_received_;
      return Status::ok();
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return io_error("timed out waiting for the final value sync");
    }
    cv_.wait_for_ms(lock, static_cast<int>(left.count()));
  }
}

Status RankLinks::fence() {
  std::vector<std::future<Status>> fences;
  for (TransportActor* transport : transports_) {
    if (transport != nullptr) {
      auto promise = std::make_shared<std::promise<Status>>();
      fences.push_back(promise->get_future());
      TransportMsg msg;
      msg.kind = TransportMsg::Kind::kFence;
      msg.fence = std::move(promise);
      transport->send(std::move(msg));
    }
  }
  for (auto& fence : fences) {
    if (fence.wait_for(std::chrono::milliseconds(timeout_ms_)) !=
        std::future_status::ready) {
      return io_error("transport fence timed out (send stalled?)");
    }
    GPSA_RETURN_IF_ERROR(fence.get());
  }
  return Status::ok();
}

void RankLinks::abort(const Status& status) {
  for (std::uint32_t p = 0; p < ranks_; ++p) {
    if (p != rank_) {
      send(p, FrameType::kAbort,
           std::vector<std::uint8_t>(status.message().begin(),
                                     status.message().end()));
    }
  }
  (void)fence();
}

void RankLinks::on_frame(std::uint32_t peer, Frame&& frame) {
  const FrameType type = frame.header.type;
  if (type == FrameType::kPartials) {
    // Decoded before taking the lock, which the dispatchers' sends share.
    on_partials(peer, PartialsPayload::decode(frame.payload));
    return;
  }
  MutexLock lock(mutex_);
  if (type == FrameType::kEndOfSuperstep) {
    auto eos = EndOfSuperstepPayload::decode(frame.payload, ranks_);
    if (eos.is_ok()) {
      const unsigned q = eos.value().superstep & 1;
      peers_[peer].has_eos[q] = true;
      peers_[peer].eos[q] = std::move(eos).value();
      close_superstep();
    } else {
      fail_locked(eos.status());
    }
  } else if (type == FrameType::kValues) {
    auto values = ValuesPayload::decode(frame.payload);
    if (values.is_ok()) {
      values_received_.add(frame.payload.size());
      peers_[peer].final_values = values.value().final_sync != 0;
      values_.push_back(std::move(values).value());
    } else {
      fail_locked(values.status());
    }
  } else if (type == FrameType::kAbort) {
    fail_locked(failed_precondition(
        "peer rank " + std::to_string(peer) + " aborted the run: " +
        std::string(frame.payload.begin(), frame.payload.end())));
  } else {
    fail_locked(corrupt_data("unexpected " +
                             std::string(frame_type_name(type)) +
                             " frame from rank " + std::to_string(peer) +
                             " after the handshake"));
  }
  cv_.notify_all();
}

void RankLinks::on_lost(std::uint32_t peer, Status status) {
  MutexLock lock(mutex_);
  if (peers_[peer].lost.is_ok()) {
    peers_[peer].lost = failed_precondition(
        "peer rank " + std::to_string(peer) + " died: " + status.message());
  }
  close_superstep();  // fails the run if the peer still owed traffic
  cv_.notify_all();
}

void RankLinks::on_partials(std::uint32_t peer,
                            Result<PartialsPayload>&& decoded) {
  MutexLock lock(mutex_);
  if (!decoded.is_ok()) {
    fail_locked(decoded.status());
    cv_.notify_all();
    return;
  }
  PartialsPayload in = std::move(decoded).value();
  const std::uint64_t superstep = in.superstep;
  if (superstep != open_ && superstep != open_ + 1) {
    fail_locked(corrupt_data(
        "PARTIALS for superstep " + std::to_string(superstep) +
        " from rank " + std::to_string(peer) + " while " +
        std::to_string(open_) + " is open"));
  } else {
    peers_[peer].batches[superstep & 1] += 1;
    peers_[peer].messages[superstep & 1] += in.messages;
    if (manager_ != nullptr && superstep == open_) {
      deliver(std::move(in));
    } else {
      held_.push_back(std::move(in));
    }
  }
  cv_.notify_all();
}

void RankLinks::deliver(PartialsPayload&& in) {
  std::vector<Partial>& partials = in.partials;
  const VertexId begin = slices_.range_begin(rank_);
  const VertexId end = slices_.range_end(rank_);
  for (const Partial& p : partials) {
    if (p.dst < begin || p.dst >= end) {
      fail_locked(corrupt_data(
          "PARTIALS partial for vertex " + std::to_string(p.dst) +
          " outside this rank's slice [" + std::to_string(begin) + ", " +
          std::to_string(end) + ")"));
      return;
    }
  }
  // Ascending partials fall into one run per computer: a frame inside one
  // computer's slice goes whole, others are split at the computers' cuts.
  for (std::size_t at = 0; at < partials.size();) {
    const unsigned owner = routing_->owner_of(partials[at].dst);
    std::size_t stop = at + 1;
    while (stop < partials.size() &&
           routing_->owner_of(partials[stop].dst) == owner) {
      ++stop;
    }
    ComputerMsg msg;
    msg.kind = ComputerMsg::Kind::kPartials;
    msg.superstep = in.superstep;
    if (at == 0 && stop == partials.size()) {
      msg.partials = std::move(partials);
    } else {
      msg.partials.assign(partials.begin() + static_cast<std::ptrdiff_t>(at),
                          partials.begin() + static_cast<std::ptrdiff_t>(stop));
    }
    computers_[owner]->send(std::move(msg));
    at = stop;
  }
}

void RankLinks::release_held() {
  if (manager_ == nullptr) {
    return;
  }
  for (PartialsPayload& in : held_) {
    // A peer runs at most one superstep ahead: only open_'s are left.
    GPSA_CHECK(in.superstep == open_);
    deliver(std::move(in));
  }
  held_.clear();
}

void RankLinks::close_superstep() {
  if (!awaiting_ || !error_.is_ok()) {
    return;
  }
  const std::uint64_t superstep = own_.superstep;
  const unsigned q = superstep & 1;
  for (std::uint32_t p = 0; p < ranks_; ++p) {
    const Peer& peer = peers_[p];
    if (p == rank_) {
      continue;
    }
    if (peer.has_eos[q] && peer.eos[q].superstep != superstep) {
      fail_locked(internal_error(
          "superstep protocol violation: end-of-superstep " +
          std::to_string(peer.eos[q].superstep) + " in the parity slot of " +
          std::to_string(superstep)));
      return;
    }
    if (!peer.has_eos[q]) {
      if (!peer.lost.is_ok()) {
        fail_locked(peer.lost);  // it will never deliver
      }
      return;  // EOS still in flight on that link
    }
    const EndOfSuperstepPayload::Cell& promised = peer.eos[q].row[rank_];
    if (peer.batches[q] != promised.batch_frames ||
        peer.messages[q] != promised.messages) {
      // The EOS follows its frames on the link: they are all in.
      fail_locked(corrupt_data(
          "rank " + std::to_string(p) + " sent " +
          std::to_string(peer.batches[q]) + " data frames of " +
          std::to_string(peer.messages[q]) + " messages in superstep " +
          std::to_string(superstep) + " but its END_OF_SUPERSTEP row says " +
          std::to_string(promised.batch_frames) + " frames of " +
          std::to_string(promised.messages)));
      return;
    }
  }
  // The whole matrix is in; every rank tallies the same rows.
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  for (std::uint32_t from = 0; from < ranks_; ++from) {
    const EndOfSuperstepPayload& row =
        from == rank_ ? own_ : peers_[from].eos[q];
    wire_bytes += row.wire_bytes;
    totals_.wire.frames += row.wire_frames;
    for (std::uint32_t to = 0; to < ranks_; ++to) {
      const EndOfSuperstepPayload::Cell& cell = row.row[to];
      messages += cell.messages;
      totals_.node_messages_sent[from] += cell.messages;
      totals_.node_messages_received[to] += cell.messages;
      if (from != to) {
        totals_.remote_messages += cell.messages;
        totals_.remote_batches += cell.batch_frames;
      }
    }
  }
  totals_.wire.bytes += wire_bytes;
  totals_.superstep_wire_bytes.push_back(wire_bytes);
  for (Peer& peer : peers_) {
    peer.has_eos[q] = false;
    peer.batches[q] = 0;
    peer.messages[q] = 0;
  }
  own_.row.assign(ranks_, {});
  framed_ = Traffic{};
  awaiting_ = false;
  ManagerMsg over;
  over.kind = ManagerMsg::Kind::kPeersOver;
  over.superstep = superstep;
  over.count = messages;
  manager_->send(over);
}

void RankLinks::fail_locked(Status status) {
  if (error_.is_ok()) {
    error_ = std::move(status);
    tell_manager();
  }
}

void RankLinks::tell_manager() {
  if (manager_ != nullptr && !error_.is_ok()) {
    ManagerMsg failed;
    failed.kind = ManagerMsg::Kind::kWorkerFailed;
    failed.superstep = own_.superstep;
    failed.error = error_.message();
    manager_->send(std::move(failed));
  }
}

}  // namespace gpsa
