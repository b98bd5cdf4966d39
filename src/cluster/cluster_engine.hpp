// Distributed GPSA in one process (paper §III.B, motivation c: "Actor-based
// graph processing can ... be directly applicable to distributed
// systems").
//
// ClusterEngine::run deploys N cluster ranks as threads of one process.
// Each rank owns a contiguous vertex interval, the matching slice of the
// CSR, and its own two-column value store (the same slot protocol as
// storage/value_file.hpp, in memory or one value file per node). The
// ranks run the same superstep loop as the rank processes of
// run_cluster_rank (cluster_net.hpp), connected pairwise by socketpairs
// instead of TCP, so every node-crossing batch is a real wire frame: the
// result reports measured communication volume and per-node load balance
// versus cluster size (the distributed-systems costs the paper's
// introduction calls out).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "graph/edge_list.hpp"
#include "graph/partition.hpp"
#include "io/io_backend.hpp"
#include "util/status.hpp"

namespace gpsa {

struct ClusterOptions {
  unsigned num_nodes = 4;
  /// Vertex-interval assignment across nodes.
  PartitionStrategy partition = PartitionStrategy::kBalancedEdges;
  /// Read by nothing: a rank runs dispatch and apply on its control
  /// thread, with one transport worker per peer. Kept only because
  /// perfbench still sets it; drop it with the next benchmark change.
  unsigned scheduler_workers = 0;
  /// VertexMessages per inter-node batch (matches
  /// EngineOptions::message_batch; see the rationale there).
  std::size_t message_batch = 4096;
  std::uint64_t max_supersteps = 0;  // 0 = program/quiescence only
  /// When non-empty, each node's two-column value store becomes a real
  /// on-disk value file at "<value_store_dir>/node<k>.values", constructed
  /// through the configured I/O backend — the per-node placement a
  /// distributed deployment would use. Empty keeps the in-memory store.
  std::string value_store_dir;
  /// Storage I/O configuration for the per-node value files (src/io/).
  IoOptions io;
};

struct ClusterRunResult {
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t remote_messages = 0;  // crossed a node boundary
  std::uint64_t remote_batches = 0;
  double elapsed_seconds = 0.0;
  /// Wire traffic measured at the transports, control frames included:
  /// rank 0's view, aggregated cluster-wide through the superstep
  /// barriers (a non-zero rank process reports its own share).
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t frames_sent = 0;
  /// Wire bytes attributed to each superstep (index = superstep).
  std::vector<std::uint64_t> superstep_wire_bytes;
  bool converged = false;
  std::vector<Payload> values;
  /// Messages *sent* by each node (dispatch-side load).
  std::vector<std::uint64_t> node_messages_sent;
  /// Messages *received* by each node (compute-side load).
  std::vector<std::uint64_t> node_messages_received;

  /// max/mean of node_messages_sent — the load-imbalance factor the
  /// paper's introduction attributes to distributed partitioning.
  double send_imbalance() const;
};

class ClusterEngine {
 public:
  /// Largest num_nodes run() accepts. Each rank thread brings one
  /// transport worker per peer and a poller, so threads grow as N².
  static constexpr unsigned kMaxNodes = 16;

  /// Runs every rank as a thread of this process and returns rank 0's
  /// view (values, totals, wire series) with every rank's load counters.
  static Result<ClusterRunResult> run(const EdgeList& graph,
                                      const Program& program,
                                      const ClusterOptions& options);

  /// Validates the per-node value stores a file-backed run left under
  /// `dir`: every node file present and well-formed, app tags matching
  /// `expected_app_tag`, and all headers agreeing on the completed
  /// superstep. Returns that common superstep count. A crash between the
  /// per-node checkpoint flushes leaves the headers disagreeing — a torn
  /// cluster state this rejects (the distributed analogue of the
  /// single-file recovery header check, §IV.G).
  static Result<std::uint64_t> validate_value_stores(
      const std::string& dir, unsigned num_nodes,
      const std::string& expected_app_tag);
};

/// Test-only crash injection for the end-of-run per-node checkpoint sweep
/// (the fork-based crash suite): after `flushes` successful node
/// checkpoints the process _exit()s, leaving the remaining nodes' headers
/// behind the finished ones. Negative disables (the default). Only ever
/// set inside a forked child.
void set_cluster_checkpoint_crash_after_flushes(int flushes);

}  // namespace gpsa
