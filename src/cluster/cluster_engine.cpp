// The in-process cluster run: every node is a rank thread running
// run_rank (cluster_rank.hpp) over socketpair links, the same superstep
// loop a rank process runs over TCP.
#include "cluster/cluster_engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_rank.hpp"
#include "net/socket.hpp"
#include "storage/value_file.hpp"
#include "util/thread.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gpsa {
namespace {

// Crash-injection state for the fork-based crash tests. Plain global: it
// is only ever set inside a freshly forked, single-threaded child.
int g_checkpoint_crash_after_flushes = -1;

/// Where a failed in-process run started: the first status any rank
/// aborts with. A peer only learns of a failure from the failing rank's
/// Abort frame or its lost link, both of which follow that rank's record.
class FirstFailure {
 public:
  void record(const Status& status) GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (first_.is_ok()) {
      first_ = status;
    }
  }
  Status get() const GPSA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return first_;
  }

 private:
  mutable Mutex mutex_{"ClusterEngine.first_failure"};
  Status first_ GPSA_GUARDED_BY(mutex_);
};

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
  if (options.num_nodes == 0 || options.num_nodes > kMaxNodes) {
    return invalid_argument("ClusterEngine: num_nodes must be in [1, " +
                            std::to_string(kMaxNodes) + "], got " +
                            std::to_string(options.num_nodes));
  }

  GPSA_ASSIGN_OR_RETURN(
      const ClusterPlan plan,
      make_cluster_plan(graph, program, options, options.num_nodes));
  const unsigned nodes = plan.owners.parts();
  std::vector<ClusterNodeState> states(nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    GPSA_RETURN_IF_ERROR(plan.init_node(node, program, states[node]));
  }
  // A full mesh: links[a][b] is rank a's end of the a-b socketpair.
  std::vector<std::vector<PeerLink>> links(nodes);
  for (unsigned a = 0; a < nodes; ++a) {
    links[a].resize(nodes);
    for (unsigned b = 0; b < a; ++b) {
      GPSA_ASSIGN_OR_RETURN(auto pair, socket_pair());
      links[a][b].rank = b;
      links[a][b].socket = std::move(pair.first);
      links[b][a].rank = a;
      links[b][a].socket = std::move(pair.second);
    }
  }

  WallTimer timer;
  FirstFailure first_failure;
  std::vector<Result<ClusterRunResult>> results(
      nodes, internal_error("ClusterEngine: rank did not run"));
  {
    std::vector<std::thread> threads;
    JoinGuard join(threads);
    for (unsigned node = 0; node < nodes; ++node) {
      threads.emplace_back([&, node] {
        set_current_thread_name("gpsa-rank" + std::to_string(node));
        ClusterNetOptions net;
        net.rank = node;
        net.ranks = nodes;
        try {
          results[node] = run_rank(
              plan, program, options, net, std::move(links[node]),
              states[node],
              [&first_failure](const Status& s) { first_failure.record(s); });
        } catch (const std::exception& e) {
          // Set-up threw (say, no thread for the rank's actors): fail this
          // rank; its closed links fail the peers.
          results[node] = internal_error("cluster rank " +
                                         std::to_string(node) + ": " +
                                         e.what());
          first_failure.record(results[node].status());
        }
      });
    }
  }
  for (const auto& result : results) {
    if (!result.is_ok()) {
      const Status first = first_failure.get();
      return first.is_ok() ? result.status() : first;
    }
  }

  // Every rank holds the same counters; rank 0 also holds the values.
  ClusterRunResult out = std::move(results[0]).value();
  out.elapsed_seconds = timer.elapsed_seconds();

  // End-of-run checkpoint sweep of a kept store (scratch files are never
  // checkpointed), serial once every rank has joined: bump every node
  // file's completed-superstep header so a later validate/recover sees one
  // consistent cluster epoch. Each checkpoint is an independent flush, so
  // a crash mid-sweep leaves the headers disagreeing —
  // validate_value_stores detects exactly that.
  if (options.value_store_dir.empty()) {
    return out;
  }
  int checkpoints_done = 0;
  for (ClusterNodeState& state : states) {
    if (g_checkpoint_crash_after_flushes >= 0 &&
        checkpoints_done++ == g_checkpoint_crash_after_flushes) {
      ::_exit(0);  // crash injection: die between per-node flushes
    }
    GPSA_RETURN_IF_ERROR(state.values.checkpoint(out.supersteps));
  }
  return out;
}

void set_cluster_checkpoint_crash_after_flushes(int flushes) {
  g_checkpoint_crash_after_flushes = flushes;
}

Result<std::uint64_t> ClusterEngine::validate_value_stores(
    const std::string& dir, unsigned num_nodes,
    const std::string& expected_app_tag) {
  // The partitioners drop empty slices, so a run over fewer vertices than
  // nodes leaves fewer files than num_nodes, and this full-set check
  // rejects it.
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
