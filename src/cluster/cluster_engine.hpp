// Distributed GPSA in one process (paper §III.B, motivation c: "Actor-based
// graph processing can ... be directly applicable to distributed
// systems"). ClusterEngine::run deploys N cluster ranks as threads of one
// process, linked pairwise by socketpairs: each runs the engine's own
// actors over its vertex slice of one CSR file, as the rank processes of
// run_cluster_rank (cluster_net.hpp) do over TCP, so every node-crossing
// partial travels in a real wire frame and the result reports measured
// communication volume and per-node load balance versus cluster size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/program.hpp"
#include "graph/edge_list.hpp"
#include "io/io_backend.hpp"
#include "util/status.hpp"

namespace gpsa {

struct ClusterOptions {
  /// Largest scheduler_workers either entry point accepts.
  static constexpr unsigned kMaxSchedulerWorkers = 16;

  unsigned num_nodes = 4;
  /// Scheduler workers per rank, 0 meaning 1: they run the rank's manager
  /// and one dispatcher and one computer each. Both entry points reject
  /// more than kMaxSchedulerWorkers before any thread or socket exists.
  unsigned scheduler_workers = 0;
  /// VertexMessages per local batch (EngineOptions::message_batch; see
  /// the rationale there). A PARTIALS frame to a peer holds at most this
  /// many messages' bytes of partials.
  std::size_t message_batch = 4096;
  std::uint64_t max_supersteps = 0;  // 0 = program/quiescence only
  /// Where each node's value file goes. Non-empty: kept at
  /// "<value_store_dir>/node<k>.values" and checkpointed at the end of the
  /// run. Empty: in a scratch directory under $TMPDIR, removed after the
  /// run.
  std::string value_store_dir;
  /// Storage I/O configuration (src/io/) every rank's job runs under.
  IoOptions io;
};

/// A cluster run's result: the rank's own job's RunResult plus what its
/// links measured. Every rank derives the loop counters (supersteps,
/// total_messages, converged) and the cluster fields below from the same
/// end-of-superstep rows, so every rank reports the same values for them,
/// but for the final value sync's share of the wire totals. The rest of
/// the RunResult (per-superstep times, pool, I/O and busy-time stats) is
/// the rank's own. `values` is the full value vector on rank 0 (and from
/// ClusterEngine::run) and empty on any other rank; `elapsed_seconds`
/// times the whole call, set-up included (run_cluster_rank's contract).
struct ClusterRunResult : RunResult {
  /// Messages and batches that crossed a node boundary, all nodes.
  std::uint64_t remote_messages = 0;
  std::uint64_t remote_batches = 0;
  /// Wire traffic, control frames included (header plus payload): every
  /// rank's supersteps, plus the final value sync's frames this rank sent
  /// or, on rank 0, received.
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t frames_sent = 0;
  /// Wire bytes every rank framed in each superstep (index = superstep).
  std::vector<std::uint64_t> superstep_wire_bytes;
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
  /// Largest num_nodes run() accepts. Besides its own thread, each rank
  /// brings its scheduler workers (at least one), a transport worker, a
  /// poller and a watchdog: N × (max(1, scheduler_workers) + 4) threads,
  /// at most 16 × 20.
  static constexpr unsigned kMaxNodes = 16;

  /// Runs every rank as a thread of this process and returns rank 0's
  /// result: the values, the cluster-wide counters and the wire totals.
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

/// Test-only crash injection for the end-of-run checkpoint sweep: after
/// `flushes` node checkpoints the process _exit()s, leaving the remaining
/// nodes' headers behind. Negative disables (the default).
void set_cluster_checkpoint_crash_after_flushes(int flushes);

}  // namespace gpsa
