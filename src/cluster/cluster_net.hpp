// Multi-process cluster over real sockets (DESIGN.md §14).
//
// run_cluster_rank() runs one rank per process: N processes connected
// pairwise over localhost TCP. Every process loads the same graph,
// partitions it identically, and runs run_rank (cluster_rank.hpp) — the
// superstep loop ClusterEngine::run runs in one process over socketpairs
// — on its own vertex slice: remote batches travel as wire frames through
// one transport actor per peer. A superstep closes on END_OF_SUPERSTEP
// frames alone: each rank sends every peer the same EOS — its row of the
// superstep's send matrix and the wire traffic it framed — and once it
// holds every peer's row it decides halt and convergence by itself, as
// every other rank does; no rank coordinates. Each rank applies batches
// as they arrive — its own flushes inline, remote ones between flushes
// and while it waits for the peers' EOS — and publishes its exact sums
// once every peer's EOS is in. The apply's result does not depend on
// arrival order (node_state.hpp), so the per-rank value stores and the
// wire traffic come out identical to the in-process run's, byte for byte.
//
// Bootstrap is rendezvous by rank: rank k listens on base_port + k — bound
// first thing, before the graph build, so early peers wait in the accept
// backlog — and accepts one connection from every higher rank; higher
// ranks connect to all lower ranks (retrying with a short backoff while
// the peer's listener does not exist yet). The
// connector opens with a Hello carrying its version range, rank topology,
// and a graph fingerprint; the acceptor validates, negotiates the highest
// common version, and replies HelloAck. A rank starts its first superstep
// as soon as its own links are up; a peer still in rendezvous keeps the
// early frames buffered in that link's decoder.
//
// Environment (mirrored by ClusterNetOptions::from_env):
//   GPSA_CLUSTER_RANK        this process's rank            [required]
//   GPSA_CLUSTER_RANKS       total process count            [required]
//   GPSA_CLUSTER_PORT        rendezvous base port           [29600]
//   GPSA_NET_TIMEOUT_MS      peer-death / barrier deadline  [30000]
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
  /// Deadline on every network wait: rendezvous, a superstep's peer
  /// frames, the final value sync. A peer silent past this is declared dead and the run errors
  /// out cleanly instead of hanging.
  int timeout_ms = 30000;
  /// Builds options from the GPSA_CLUSTER_* / GPSA_NET_* environment.
  /// Errors when GPSA_CLUSTER_RANK / GPSA_CLUSTER_RANKS are missing or
  /// inconsistent (rank >= ranks, ranks == 0).
  static Result<ClusterNetOptions> from_env();
};

/// Runs this process's rank of a multi-process cluster execution.
/// `options.num_nodes` is ignored — the partition count is net.ranks, one
/// node per process. Returns once the cluster halts (converged or budget)
/// with this rank's view of the result:
///   - loop counters: every rank returns the same cluster-wide
///     supersteps, total_messages, converged, remote_messages/batches,
///     node_messages_sent/received and superstep_wire_bytes, all derived
///     from the EOS rows.
///   - values: rank 0 holds the full, bit-exact value vector (its mirror,
///     fed by every rank's slice after halt); other ranks return none.
///   - bytes_on_wire / frames_sent: the superstep series' frames plus the
///     final value sync as this rank saw it: rank 0 counts every Values
///     frame it received, so its totals cover the whole run's traffic;
///     any other rank counts the Values frames it sent.
/// Any peer dying mid-run surfaces as a clean error within
/// net.timeout_ms — never a hang.
Result<ClusterRunResult> run_cluster_rank(const EdgeList& graph,
                                          const Program& program,
                                          const ClusterOptions& options,
                                          const ClusterNetOptions& net);

/// Test-only crash injection (the fork-based crash suite): the rank
/// _exit()s mid-superstep — after dispatching, before announcing
/// end-of-superstep — leaving peers to detect the death. Negative
/// disables (the default). Only ever set in a test child process.
void set_cluster_net_crash_at_superstep(int superstep);

}  // namespace gpsa
