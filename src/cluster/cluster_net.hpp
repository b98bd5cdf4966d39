// Multi-process cluster over real sockets (DESIGN.md §14).
//
// run_cluster_rank() runs one rank per process: N processes connected
// pairwise over localhost TCP, each running run_rank (cluster_net.cpp),
// as the rank threads of ClusterEngine::run do over socketpairs: the
// engine's own actors over the rank's slice, its peer links carrying the
// batches and the END_OF_SUPERSTEP barrier (net/rank_links.hpp). The
// apply's result does not depend on arrival order (core/slice_apply.hpp),
// so the node value stores and the wire traffic come out identical to
// the in-process run's, byte for byte.
//
// Bootstrap is rendezvous by rank: rank k listens on base_port + k, bound
// before the graph build so early peers wait in the accept backlog, and
// accepts every higher rank; higher ranks connect to all lower ranks,
// retrying briefly while a listener does not exist yet. The connector's
// Hello carries its version range, rank topology and a graph fingerprint;
// the acceptor validates, negotiates the highest common version and
// replies HelloAck. A rank starts superstep 0 as soon as its own links
// are up; a peer still in rendezvous keeps the early frames buffered.
//
// Environment (mirrored by ClusterNetOptions::from_env):
//   GPSA_CLUSTER_RANK        this process's rank            [required]
//   GPSA_CLUSTER_RANKS       total process count            [required]
//   GPSA_CLUSTER_PORT        rendezvous base port           [29600]
//   GPSA_NET_TIMEOUT_MS      peer-death deadline            [30000]
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/cluster_engine.hpp"
#include "graph/csr_v2.hpp"

namespace gpsa {

/// The rendezvous fingerprint every rank must agree on before values can
/// mix: |V|, |E|, the rank count (fixes the partition), the program name,
/// and the CSR storage configuration (format + vertex order — a rank
/// renumbered under GPSA_CSR_ORDER=degree partitions a different id
/// space, so mixing its values with an unrenumbered rank's would be
/// silent corruption). Exposed so tests can assert that mismatched
/// configurations produce unequal fingerprints.
std::uint64_t cluster_graph_fingerprint(std::uint64_t num_vertices,
                                        std::uint64_t num_edges,
                                        std::uint32_t ranks,
                                        const std::string& program_name,
                                        CsrFormat format, CsrOrder order);

struct ClusterNetOptions {
  std::uint32_t rank = 0;
  std::uint32_t ranks = 1;
  /// Rank k's listener binds 127.0.0.1:(base_port + k).
  std::uint16_t base_port = 29600;
  /// Deadline on every network wait: rendezvous, a superstep that makes
  /// no progress, the final value sync. Past it a peer is declared dead
  /// and the run errors out cleanly instead of hanging.
  int timeout_ms = 30000;
  /// Builds options from the GPSA_CLUSTER_* / GPSA_NET_* environment.
  /// Errors when GPSA_CLUSTER_RANK / GPSA_CLUSTER_RANKS are missing or
  /// inconsistent (rank >= ranks, ranks == 0).
  static Result<ClusterNetOptions> from_env();
};

/// Runs this process's rank of a multi-process cluster execution.
/// `options.num_nodes` is ignored — the partition count is net.ranks, one
/// node per process. Returns once the cluster halts (converged or budget)
/// with this rank's view of the result: every rank the same cluster-wide
/// loop counters, from the EOS rows; rank 0 alone the full value vector,
/// fed by every rank's slice after halt; and bytes_on_wire / frames_sent
/// counting the final value sync as this rank saw it (rank 0 every VALUES
/// frame it received, so its totals cover the whole run). Any peer dying
/// mid-run surfaces as a clean error within net.timeout_ms, never a hang.
Result<ClusterRunResult> run_cluster_rank(const EdgeList& graph,
                                          const Program& program,
                                          const ClusterOptions& options,
                                          const ClusterNetOptions& net);

/// Test-only crash injection: the rank _exit()s at `superstep`, after its
/// dispatch and before its END_OF_SUPERSTEP, leaving peers to detect the
/// death. Negative disables (the default).
void set_cluster_net_crash_at_superstep(int superstep);

}  // namespace gpsa
