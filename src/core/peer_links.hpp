// A cluster rank's links to its peers, as run_job's actors see them
// (DESIGN.md §14); net/rank_links.hpp implements them over sockets, and a
// one-rank run (Engine, GraphService) has none. With links, run_job
// stores only the rank's slice, its computers own sub-slices of it, and
// every other rank's slice is one more owner in the dispatchers' routing
// map, whose flushes leave through send_partials, combined to one partial
// per destination.
#pragma once

#include <cstdint>
#include <vector>

#include "core/messages.hpp"
#include "core/ownership.hpp"

namespace gpsa {

class ComputerActor;
class ManagerActor;

class PeerLinks {
 public:
  virtual ~PeerLinks() = default;
  /// This rank, and every rank's vertex slice (owner r is rank r).
  virtual std::uint32_t rank() const = 0;
  virtual const OwnerMap& slices() const = 0;

  /// Until disconnect(), inbound partials go to `computers[o]`, the
  /// computer owning owner `o` of `routing` (null for a peer's slice),
  /// and barrier notices to `manager`.
  virtual void connect(const OwnerMap& routing,
                       std::vector<ComputerActor*> computers,
                       ManagerActor* manager) = 0;
  virtual void disconnect() = 0;

  /// Partials per send_partials at most: one frame of them stays within
  /// one pool batch's bytes.
  virtual std::size_t max_partials() const = 0;
  /// A dispatcher's combined flush to owner `owner`, a peer's: ascending
  /// partials folding `messages` of its messages.
  virtual void send_partials(unsigned owner, std::uint64_t superstep,
                             std::uint64_t messages,
                             std::vector<Partial>&& partials) = 0;
  /// The manager: every local dispatcher has reported `superstep`, with
  /// `messages` sent in all. The links answer with kPeersOver (count =
  /// the cluster's messages) once every peer's traffic for it is in.
  virtual void end_dispatch(std::uint64_t superstep,
                            std::uint64_t messages) = 0;
  /// The manager: COMPUTE_OVER(superstep - 1) is enqueued at every
  /// computer, so `superstep`'s inbound partials may follow it.
  virtual void open(std::uint64_t superstep) = 0;
};

}  // namespace gpsa
