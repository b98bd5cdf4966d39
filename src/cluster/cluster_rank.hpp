// One cluster rank's superstep loop, shared by both cluster entry points
// (DESIGN.md §14). run_cluster_rank (cluster_net.hpp) runs one rank per
// process over TCP links from a rendezvous; ClusterEngine::run
// (cluster_engine.hpp) runs every rank as a thread of one process over
// socketpair links. Past the links both run run_rank, frame for
// frame, so the in-process run measures real wire traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_net.hpp"
#include "cluster/node_state.hpp"
#include "core/ownership.hpp"
#include "graph/csr.hpp"
#include "io/io_backend.hpp"
#include "net/socket.hpp"
#include "net/wire_frame.hpp"
#include "platform/file_util.hpp"
#include "util/status.hpp"

namespace gpsa {

/// What every rank derives identically from the graph: the CSR, the
/// partition (the OwnerMap doubles as the per-node store layout), the
/// superstep budget, and where the node value files go: the backend that
/// creates them and their directory — value_store_dir, or else a scratch
/// directory the plan removes with itself. In one process, every rank
/// reads the same plan.
struct ClusterPlan {
  Csr csr;
  OwnerMap owners;
  std::uint64_t budget = 0;
  std::unique_ptr<IoBackend> backend;
  std::string store_dir;
  std::optional<ScratchDir> scratch;  // value_store_dir empty only

  /// Sets up `node`'s slice, value file, worklist bits and delta memory.
  Status init_node(unsigned node, const Program& program,
                   ClusterNodeState& state) const;
};

/// Builds the CSR and splits it into (at most) `parts` slices.
Result<ClusterPlan> make_cluster_plan(const EdgeList& graph,
                                      const Program& program,
                                      const ClusterOptions& options,
                                      unsigned parts);

/// One connected peer: a handshaken TCP link, or one end of a socketpair.
struct PeerLink {
  std::uint32_t rank = 0;
  Socket socket;
  std::uint16_t version = kWireVersionMax;
  /// Carries any bytes the handshake read past its frame (handed to the
  /// poller — see InboundPoller::Peer::decoder).
  FrameDecoder decoder;
};

/// Runs rank `net.rank` until the cluster halts, over `links` (indexed by
/// peer rank, the self slot empty) and `state` (set up by
/// plan.init_node). Returns this rank's view (run_cluster_rank's
/// contract) without elapsed time and without checkpointing the store.
/// On a failure, `on_abort` (when set) hears the status before any peer
/// is told: the first status it hears in a process is where the failure
/// started.
Result<ClusterRunResult> run_rank(
    const ClusterPlan& plan, const Program& program,
    const ClusterOptions& options, const ClusterNetOptions& net,
    std::vector<PeerLink> links, ClusterNodeState& state,
    const std::function<void(const Status&)>& on_abort);

}  // namespace gpsa
