#include "cluster/cluster_engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>

#include "actor/actor_system.hpp"
#include "cluster/node_state.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "graph/csr.hpp"
#include "storage/slot.hpp"
#include "storage/value_file.hpp"
#include "util/check.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"

namespace gpsa {
namespace {

// Crash-injection state for the fork-based crash tests. Plain global: it
// is only ever set inside a freshly forked, single-threaded child.
int g_checkpoint_crash_after_flushes = -1;

class ClusterManager;
class ClusterComputer;

// Node placement is the engine's OwnerMap in range mode
// (core/ownership.hpp) — the same contiguous-slice map the
// single-machine message plane routes with, here doubling as the
// per-node store layout (each node's value store covers exactly its
// owner slice, indexed by OwnerMap::local_index).
//
// The per-node state, dispatch loop, and apply all live in
// cluster/node_state.hpp, shared with the socket data plane
// (cluster_net.cpp) — the sharing is what makes the two engines
// bit-identical and this simulation a usable oracle.

class ClusterComputer final : public Actor<ComputerMsg> {
 public:
  ClusterComputer(std::uint32_t node, ClusterNodeState& state,
                  const Program& program, MessageBatchPool& pool)
      : node_(node), state_(state), program_(program), pool_(pool) {}

  void connect(ClusterManager* manager) { manager_ = manager; }

  std::uint64_t received_total() const { return received_total_; }

 protected:
  void on_message(ComputerMsg msg) override;

 private:
  void report_failure(std::uint64_t superstep, const std::exception& e);

  const std::uint32_t node_;
  ClusterNodeState& state_;
  const Program& program_;
  MessageBatchPool& pool_;
  ClusterManager* manager_ = nullptr;
  /// Vertices updated this superstep by batches applied so far.
  std::uint64_t updates_ = 0;
  std::uint64_t received_total_ = 0;
};

class ClusterDispatcher final : public Actor<DispatcherMsg> {
 public:
  ClusterDispatcher(std::uint32_t node, ClusterNodeState& state,
                    const Csr& graph, const Program& program,
                    const OwnerMap& owners, MessageBatchPool& pool,
                    std::size_t batch_size)
      : node_(node),
        core_(node, state, graph, program, owners, pool, batch_size) {}

  void connect(std::vector<ClusterComputer*> computers,
               ClusterManager* manager) {
    computers_ = std::move(computers);
    manager_ = manager;
  }

  std::uint64_t sent_total() const { return sent_total_; }
  std::uint64_t remote_messages() const { return remote_messages_; }
  std::uint64_t remote_batches() const { return remote_batches_; }

 protected:
  void on_message(DispatcherMsg msg) override;

 private:
  void run_iteration(std::uint64_t superstep);

  const std::uint32_t node_;
  NodeDispatchCore core_;
  std::vector<ClusterComputer*> computers_;
  ClusterManager* manager_ = nullptr;
  std::uint64_t sent_total_ = 0;
  std::uint64_t remote_messages_ = 0;
  std::uint64_t remote_batches_ = 0;
};

class ClusterManager final : public Actor<ManagerMsg> {
 public:
  ClusterManager(std::uint64_t max_supersteps) : budget_(max_supersteps) {}

  void connect(std::vector<ClusterDispatcher*> dispatchers,
               std::vector<ClusterComputer*> computers) {
    dispatchers_ = std::move(dispatchers);
    computers_ = std::move(computers);
  }

  struct Outcome {
    std::uint64_t supersteps = 0;
    std::uint64_t total_messages = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t wire_frames = 0;
    std::vector<std::uint64_t> superstep_wire_bytes;
    bool converged = false;
    /// Set when a worker failed; the run then returns it as its Status.
    std::string error;
  };
  std::future<Outcome> future() { return promise_.get_future(); }

  std::uint64_t superstep() const { return superstep_; }

 protected:
  void on_message(ManagerMsg msg) override {
    if (finished_) {
      return;
    }
    switch (msg.kind) {
      case ManagerMsg::Kind::kStartRun:
        // A zero budget means zero supersteps. Without this check the
        // first superstep would run before kComputeOver's budget test —
        // the off-by-one the single-machine manager already guards.
        if (budget_ == 0) {
          finish(/*converged=*/false);
          break;
        }
        start_superstep();
        break;
      case ManagerMsg::Kind::kDispatchOver:
        superstep_messages_ += msg.count;
        superstep_wire_ += msg.wire_bytes;
        superstep_frames_ += msg.wire_frames;
        if (++dispatch_acks_ == dispatchers_.size()) {
          for (ClusterComputer* computer : computers_) {
            ComputerMsg over;
            over.kind = ComputerMsg::Kind::kComputeOver;
            over.superstep = superstep_;
            computer->send(std::move(over));
          }
        }
        break;
      case ManagerMsg::Kind::kComputeOver:
        if (++compute_acks_ == computers_.size()) {
          outcome_.total_messages += superstep_messages_;
          outcome_.wire_bytes += superstep_wire_;
          outcome_.wire_frames += superstep_frames_;
          outcome_.superstep_wire_bytes.push_back(superstep_wire_);
          ++superstep_;
          ++outcome_.supersteps;
          if (superstep_messages_ == 0) {
            finish(/*converged=*/true);
          } else if (outcome_.supersteps >= budget_) {
            finish(/*converged=*/false);
          } else {
            start_superstep();
          }
        }
        break;
      case ManagerMsg::Kind::kWorkerFailed:
        outcome_.error = std::move(msg.error);
        finish(/*converged=*/false);
        break;
    }
  }

 private:
  void start_superstep() {
    dispatch_acks_ = 0;
    compute_acks_ = 0;
    superstep_messages_ = 0;
    superstep_wire_ = 0;
    superstep_frames_ = 0;
    DispatcherMsg start;
    start.kind = DispatcherMsg::Kind::kIterationStart;
    start.superstep = superstep_;
    for (ClusterDispatcher* dispatcher : dispatchers_) {
      dispatcher->send(start);
    }
  }

  void finish(bool converged) {
    finished_ = true;
    outcome_.converged = converged;
    DispatcherMsg over;
    over.kind = DispatcherMsg::Kind::kSystemOver;
    for (ClusterDispatcher* dispatcher : dispatchers_) {
      dispatcher->send(over);
    }
    for (ClusterComputer* computer : computers_) {
      ComputerMsg stop;
      stop.kind = ComputerMsg::Kind::kSystemOver;
      computer->send(std::move(stop));
    }
    promise_.set_value(outcome_);
  }

  const std::uint64_t budget_;
  std::vector<ClusterDispatcher*> dispatchers_;
  std::vector<ClusterComputer*> computers_;
  std::uint64_t superstep_ = 0;
  std::size_t dispatch_acks_ = 0;
  std::size_t compute_acks_ = 0;
  std::uint64_t superstep_messages_ = 0;
  std::uint64_t superstep_wire_ = 0;
  std::uint64_t superstep_frames_ = 0;
  Outcome outcome_;
  std::promise<Outcome> promise_;
  bool finished_ = false;
};

void ClusterComputer::on_message(ComputerMsg msg) {
  switch (msg.kind) {
    case ComputerMsg::Kind::kBatch:
      // Applied on arrival, in mailbox order: the fold's result does not
      // depend on it (node_state.hpp).
      received_total_ += msg.batch.size();
      try {
        updates_ +=
            cluster_apply_batch(state_, program_, msg.batch, msg.superstep);
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
      }
      pool_.recycle(std::move(msg.batch));
      break;
    case ComputerMsg::Kind::kComputeOver: {
      // Every batch of the superstep precedes this message in the mailbox
      // (a dispatcher enqueues its batches before its DISPATCH_OVER ack,
      // which precedes the manager's COMPUTE_OVER).
      try {
        updates_ += cluster_publish_sums(state_, program_, msg.superstep);
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
        break;
      }
      ManagerMsg ack;
      ack.kind = ManagerMsg::Kind::kComputeOver;
      ack.superstep = msg.superstep;
      ack.worker_id = node_;
      ack.count = updates_;
      updates_ = 0;
      manager_->send(std::move(ack));
      break;
    }
    case ComputerMsg::Kind::kSystemOver:
      break;
  }
}

void ClusterComputer::report_failure(std::uint64_t superstep,
                                     const std::exception& e) {
  // A sum left the exact fold's range, or a program hook threw: fail the
  // run with a Status instead of terminating the process.
  ManagerMsg failed;
  failed.kind = ManagerMsg::Kind::kWorkerFailed;
  failed.superstep = superstep;
  failed.worker_id = node_;
  failed.error =
      "cluster node " + std::to_string(node_) + ": " + e.what();
  manager_->send(std::move(failed));
}

void ClusterDispatcher::on_message(DispatcherMsg msg) {
  switch (msg.kind) {
    case DispatcherMsg::Kind::kIterationStart:
      run_iteration(msg.superstep);
      break;
    case DispatcherMsg::Kind::kSystemOver:
      break;
  }
}

void ClusterDispatcher::run_iteration(std::uint64_t superstep) {
  const NodeDispatchCore::IterationStats stats = core_.run_iteration(
      superstep,
      [&](unsigned dst, std::uint32_t /*seq*/,
          std::vector<VertexMessage>&& batch) {
        ComputerMsg msg;
        msg.kind = ComputerMsg::Kind::kBatch;
        msg.superstep = superstep;
        msg.batch = std::move(batch);
        computers_[dst]->send(std::move(msg));
      });
  sent_total_ += stats.messages;
  remote_messages_ += stats.remote_messages;
  remote_batches_ += stats.remote_batches;
  ManagerMsg done;
  done.kind = ManagerMsg::Kind::kDispatchOver;
  done.superstep = superstep;
  done.worker_id = node_;
  done.count = stats.messages;
  done.wire_bytes = stats.remote_wire_bytes;
  done.wire_frames = stats.remote_batches;
  manager_->send(std::move(done));
}

}  // namespace

double ClusterRunResult::send_imbalance() const {
  if (node_messages_sent.empty()) {
    return 1.0;
  }
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t m : node_messages_sent) {
    max = std::max(max, m);
    sum += m;
  }
  const double mean =
      static_cast<double>(sum) / static_cast<double>(node_messages_sent.size());
  return mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
}

Result<ClusterRunResult> ClusterEngine::run(const EdgeList& graph,
                                            const Program& program,
                                            const ClusterOptions& options) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("ClusterEngine: empty graph");
  }
  if (options.num_nodes == 0) {
    return invalid_argument("ClusterEngine: num_nodes must be >= 1");
  }

  const Csr csr = Csr::from_edges(graph);
  std::vector<EdgeCount> degrees(n);
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = csr.out_degree(v);
  }
  const auto intervals = make_intervals_from_degrees(
      degrees, options.num_nodes, options.partition);
  GPSA_CHECK(!intervals.empty());
  const OwnerMap owners = OwnerMap::make_range_from_intervals(intervals);
  const unsigned nodes = owners.parts();
  // Outlives the ActorSystem (message_pool.hpp lifetime note).
  MessageBatchPool pool(options.message_batch);

  std::unique_ptr<IoBackend> backend;
  if (!options.value_store_dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(const IoConfig io_config, options.io.resolve());
    GPSA_ASSIGN_OR_RETURN(backend, IoBackend::create(io_config));
    std::error_code ec;
    std::filesystem::create_directories(options.value_store_dir, ec);
    if (ec) {
      return io_error("ClusterEngine: cannot create value store dir " +
                      options.value_store_dir + ": " + ec.message());
    }
  }

  std::vector<ClusterNodeState> states(nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    if (backend != nullptr) {
      GPSA_RETURN_IF_ERROR(states[node].init_file_backed(
          *backend,
          options.value_store_dir + "/node" + std::to_string(node) + ".values",
          intervals[node].begin_vertex, intervals[node].end_vertex, program,
          n));
    } else {
      states[node].init(intervals[node].begin_vertex,
                        intervals[node].end_vertex, program, n);
    }
    states[node].prepare_exec(program.delta_messages());
  }

  std::uint64_t budget = program.max_supersteps();
  if (options.max_supersteps != 0) {
    budget = std::min(budget, options.max_supersteps);
  }

  const unsigned workers = options.scheduler_workers != 0
                               ? options.scheduler_workers
                               : default_worker_count();
  ActorSystem system(workers);
  std::vector<ClusterComputer*> computers;
  std::vector<ClusterDispatcher*> dispatchers;
  computers.reserve(nodes);
  dispatchers.reserve(nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    computers.push_back(system.spawn<ClusterComputer>(
        node, std::ref(states[node]), std::cref(program), std::ref(pool)));
  }
  auto* manager = system.spawn<ClusterManager>(budget);
  for (unsigned node = 0; node < nodes; ++node) {
    dispatchers.push_back(system.spawn<ClusterDispatcher>(
        node, std::ref(states[node]), std::cref(csr), std::cref(program),
        std::cref(owners), std::ref(pool), options.message_batch));
    dispatchers.back()->connect(computers, manager);
    computers[node]->connect(manager);
  }
  manager->connect(dispatchers, computers);

  auto future = manager->future();
  WallTimer timer;
  ManagerMsg start;
  start.kind = ManagerMsg::Kind::kStartRun;
  manager->send(std::move(start));
  const ClusterManager::Outcome outcome = future.get();
  if (!outcome.error.empty()) {
    system.shutdown();
    return internal_error("ClusterEngine: " + outcome.error);
  }

  ClusterRunResult out;
  out.supersteps = outcome.supersteps;
  out.total_messages = outcome.total_messages;
  out.converged = outcome.converged;
  out.elapsed_seconds = timer.elapsed_seconds();
  out.measured_wire = false;
  out.bytes_on_wire = outcome.wire_bytes;
  out.frames_sent = outcome.wire_frames;
  out.superstep_wire_bytes = outcome.superstep_wire_bytes;
  out.values.resize(n);
  out.node_messages_sent.resize(nodes);
  out.node_messages_received.resize(nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    const ClusterNodeState& state = states[node];
    for (VertexId v = state.begin; v < state.end; ++v) {
      out.values[v] =
          slot_payload(state.load(v, state.latest[v - state.begin]));
    }
    out.node_messages_sent[node] = dispatchers[node]->sent_total();
    out.node_messages_received[node] = computers[node]->received_total();
    out.remote_messages += dispatchers[node]->remote_messages();
    out.remote_batches += dispatchers[node]->remote_batches();
  }
  system.shutdown();

  // End-of-run checkpoint sweep: bump every node store's completed-
  // superstep header so a later validate/recover sees one consistent
  // cluster epoch. Each checkpoint is an independent flush, so a crash
  // mid-sweep leaves the headers disagreeing — validate_value_stores
  // detects exactly that.
  if (backend != nullptr) {
    int checkpoints_done = 0;
    for (unsigned node = 0; node < nodes; ++node) {
      if (!states[node].file) {
        continue;
      }
      if (g_checkpoint_crash_after_flushes >= 0 &&
          checkpoints_done++ == g_checkpoint_crash_after_flushes) {
        ::_exit(0);  // crash injection: die between per-node flushes
      }
      GPSA_RETURN_IF_ERROR(states[node].file->checkpoint(outcome.supersteps));
    }
  }
  return out;
}

void set_cluster_checkpoint_crash_after_flushes(int flushes) {
  g_checkpoint_crash_after_flushes = flushes;
}

Result<std::uint64_t> ClusterEngine::validate_value_stores(
    const std::string& dir, unsigned num_nodes,
    const std::string& expected_app_tag) {
  // Nodes with empty vertex slices create no file, so this full-set check
  // applies to runs where every node owned vertices — which the interval
  // partitioners guarantee whenever num_vertices >= num_nodes.
  std::uint64_t common = 0;
  bool have_common = false;
  for (unsigned node = 0; node < num_nodes; ++node) {
    const std::string path = dir + "/node" + std::to_string(node) + ".values";
    auto file = ValueFile::open(path);
    if (!file.is_ok()) {
      return corrupt_data("cluster store invalid: node " +
                          std::to_string(node) + " unreadable (" +
                          file.status().to_string() + ")");
    }
    if (file.value().app_tag() != expected_app_tag) {
      return corrupt_data("cluster store invalid: node " +
                          std::to_string(node) + " app tag '" +
                          file.value().app_tag() + "' != expected '" +
                          expected_app_tag + "'");
    }
    const std::uint64_t completed = file.value().completed_supersteps();
    if (!have_common) {
      common = completed;
      have_common = true;
    } else if (completed != common) {
      return corrupt_data("cluster store torn: node " + std::to_string(node) +
                          " completed " + std::to_string(completed) +
                          " supersteps but an earlier node completed " +
                          std::to_string(common) +
                          " (crash between per-node checkpoint flushes)");
    }
  }
  if (!have_common) {
    return corrupt_data("cluster store invalid: no node files under " + dir);
  }
  return common;
}

}  // namespace gpsa
