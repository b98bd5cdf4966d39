// Manager actor (paper §V.C, Algorithm 1).
//
// Drives the superstep protocol:
//
//   start superstep s: ITERATION_START -> every dispatcher
//   all DISPATCH_OVER received: COMPUTE_OVER -> every computer
//     (mailbox enqueue order guarantees the token arrives after every
//      batch the dispatchers enqueued during s). A cluster rank's manager
//     first tells its peer links (core/peer_links.hpp) and waits for their
//     PEERS_OVER, and decides halt on the whole cluster's messages.
//   all COMPUTE_OVER acks received: superstep s is complete ->
//     optional checkpoint; decide: converged (zero messages dispatched),
//     superstep budget exhausted, or start s+1.
//   finish: SYSTEM_OVER -> all workers, fulfil the completion promise the
//     engine front-end is blocked on.
//
// Per-superstep wall time and message/update counts are recorded for the
// benchmark harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include "actor/actor.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "storage/value_file.hpp"
#include "util/timer.hpp"

namespace gpsa {

class DispatcherActor;
class ComputerActor;
class PeerLinks;

/// Outcome handed to the engine when the run finishes.
struct ManagerResult {
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_updates = 0;
  bool converged = false;  // true: zero-message quiescence; false: budget
  bool failed = false;     // a worker's user hook threw; `error` explains
  /// True when a cooperative cancel request (GraphService) stopped the run
  /// at a superstep boundary; values reflect the completed supersteps.
  bool cancelled = false;
  std::string error;
  std::vector<double> superstep_seconds;
  std::vector<std::uint64_t> superstep_messages;
  std::vector<std::uint64_t> superstep_updates;
  /// Vertices actually dispatched per superstep (the frontier size).
  std::vector<std::uint64_t> superstep_active;
  /// CSR entries examined per superstep: streamed record entries plus one
  /// per vertex check (one check per worklist bit, so O(active)).
  std::vector<std::uint64_t> superstep_edges;
};

class ManagerActor final : public Actor<ManagerMsg> {
 public:
  /// `checkpoint_interval`: 0 disables checkpointing; N >= 1 checkpoints
  /// (msync + counter bump) every N completed supersteps, plus once at the
  /// end of a clean run, so batching flushes (the write-back experiment,
  /// GPSA_CHECKPOINT_INTERVAL) bounds crash-replay to N-1 supersteps
  /// without losing the final state. `terminate_on_zero_updates`: also
  /// stop when a superstep applies no updates (needed when
  /// dispatch_inactive keeps message counts nonzero forever). `pool` (may
  /// be null) is told about each superstep boundary so MessagePoolStats
  /// can split warm-up misses from steady-state ones. `cancel` (may be
  /// null) is polled at each superstep boundary: once it reads true the
  /// run winds down cleanly with `cancelled` set. `progress` (may be null)
  /// is bumped once per completed superstep so a service front-end can
  /// observe a resident job's liveness without waiting for the result.
  /// `peers` (null in a one-rank run) are the cluster rank's links.
  ManagerActor(ValueFile& values, std::uint64_t max_supersteps,
               std::uint64_t checkpoint_interval,
               bool terminate_on_zero_updates = false,
               MessageBatchPool* pool = nullptr,
               const std::atomic<bool>* cancel = nullptr,
               std::atomic<std::uint64_t>* progress = nullptr,
               PeerLinks* peers = nullptr);

  void connect(std::vector<DispatcherActor*> dispatchers,
               std::vector<ComputerActor*> computers);

  /// The engine blocks on this future after sending kStartRun.
  std::future<ManagerResult> result_future() { return promise_.get_future(); }

 protected:
  void on_message(ManagerMsg msg) override;

 private:
  void start_superstep();
  void send_compute_over();
  void finish_superstep();
  void finish_run(bool converged);

  ValueFile& values_;
  const std::uint64_t max_supersteps_;
  const std::uint64_t checkpoint_interval_;
  const bool terminate_on_zero_updates_;
  MessageBatchPool* const pool_;
  const std::atomic<bool>* const cancel_;
  std::atomic<std::uint64_t>* const progress_;
  PeerLinks* const peers_;

  std::vector<DispatcherActor*> dispatchers_;
  std::vector<ComputerActor*> computers_;

  std::uint64_t superstep_ = 0;
  std::uint32_t dispatch_acks_ = 0;
  std::uint32_t compute_acks_ = 0;
  std::uint64_t superstep_message_count_ = 0;
  std::uint64_t superstep_update_count_ = 0;
  std::uint64_t superstep_active_count_ = 0;
  std::uint64_t superstep_edges_count_ = 0;
  WallTimer superstep_timer_;

  ManagerResult result_;
  std::promise<ManagerResult> promise_;
  bool finished_ = false;
  /// Supersteps completed since the last checkpoint (batched flushing).
  bool checkpoint_pending_ = false;
};

}  // namespace gpsa
