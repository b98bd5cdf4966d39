// Tests for the in-process cluster run (every rank a thread, linked by
// socketpairs): bit-identity with the single-machine engine and the
// reference across node counts (location transparency), communication
// accounting, load balance of the two partitioning strategies, option
// checks, and crash consistency of the per-node value stores (fork-based
// checkpoint crash injection).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/reference.hpp"
#include "cluster/cluster_engine.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

class ClusterNodeCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClusterNodeCountTest, BfsMatchesReferenceOnAnyClusterSize) {
  const unsigned nodes = GetParam();
  const EdgeList graph = rmat(8, 2000, 91);
  const BfsProgram program(0);
  ClusterOptions co;
  co.num_nodes = nodes;
  const auto result = ClusterEngine::run(graph, program, co);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  EXPECT_TRUE(result.value().converged);
}

TEST_P(ClusterNodeCountTest, CcMatchesReferenceOnAnyClusterSize) {
  const unsigned nodes = GetParam();
  const EdgeList graph = erdos_renyi(300, 800, 93);
  const ConnectedComponentsProgram program;
  ClusterOptions co;
  co.num_nodes = nodes;
  const auto result = ClusterEngine::run(graph, program, co);
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ClusterNodeCountTest,
                         ::testing::Values(1U, 2U, 3U, 5U, 8U));

class ClusterMatchesEngineTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClusterMatchesEngineTest, BitIdenticalToTheSingleMachineEngine) {
  // Both fold sum programs exactly and min programs order-free, so the
  // cluster equals the engine bit for bit, at any node count.
  const unsigned nodes = GetParam();
  auto dir = ScratchDir::create("cluster_vs_engine");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(9, 4000, 103);
  const std::string base = dir.value().file("g.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, base, /*with_degree=*/true)
                  .is_ok());
  const PageRankProgram pagerank(5);
  const PageRankDeltaProgram delta(100, 0.85F, 1e-4F);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const Program* const programs[] = {&pagerank, &delta, &bfs, &cc};
  for (const Program* program : programs) {
    SCOPED_TRACE(program->name());
    EngineOptions eo;
    eo.num_dispatchers = 2;
    eo.num_computers = 2;
    eo.work_dir = dir.value().path();
    const auto engine = Engine::run_from_csr(base, *program, eo);
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    ClusterOptions co;
    co.num_nodes = nodes;
    const auto cluster = ClusterEngine::run(graph, *program, co);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    expect_payloads_equal(cluster.value().values, engine.value().values);
    EXPECT_EQ(cluster.value().supersteps, engine.value().supersteps);
    EXPECT_EQ(cluster.value().total_messages, engine.value().total_messages);
    EXPECT_EQ(cluster.value().converged, engine.value().converged);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ClusterMatchesEngineTest,
                         ::testing::Values(1U, 2U, 3U, 5U));

TEST(Cluster, PageRankMatchesReference) {
  const EdgeList graph = rmat(8, 2500, 95);
  const PageRankProgram program(5);
  ClusterOptions co;
  co.num_nodes = 4;
  const auto result = ClusterEngine::run(graph, program, co);
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Cluster, WorklistMatchesReference) {
  // Values, total messages and supersteps equal the single-thread
  // reference: node-local bitmaps need no activation state from other
  // nodes (the message carries it).
  const EdgeList graph = rmat(8, 2000, 91);
  const Csr csr = Csr::from_edges(graph);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const Program* const programs[] = {&bfs, &cc};
  for (const Program* program : programs) {
    ClusterOptions co;
    co.num_nodes = 3;
    const auto result = ClusterEngine::run(graph, *program, co);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    SCOPED_TRACE(program->name());
    const ReferenceResult ref = reference_run(csr, *program);
    expect_payloads_equal(result.value().values, ref.values);
    EXPECT_EQ(result.value().total_messages, ref.total_messages);
    EXPECT_EQ(result.value().supersteps, ref.supersteps);
  }
}

TEST(Cluster, ZeroBudgetRunsZeroSupersteps) {
  // A zero superstep budget (program cap 0) must halt before the first
  // superstep, not after it — the manager used to run one superstep
  // before its budget check.
  const EdgeList graph = chain(16);
  ClusterOptions co;
  co.num_nodes = 2;
  const auto result = ClusterEngine::run(graph, PageRankProgram(0), co);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 0U);
  EXPECT_EQ(result.value().total_messages, 0U);
  EXPECT_FALSE(result.value().converged);
}

TEST(Cluster, OptionCapZeroMeansUncappedAndSmallerCapWins) {
  const EdgeList graph = chain(16);
  ClusterOptions co;
  co.num_nodes = 2;
  co.max_supersteps = 0;  // uncapped: BFS runs the chain down
  const auto uncapped = ClusterEngine::run(graph, BfsProgram(0), co);
  ASSERT_TRUE(uncapped.is_ok());
  EXPECT_TRUE(uncapped.value().converged);
  EXPECT_EQ(uncapped.value().supersteps, 16U);

  co.max_supersteps = 10;  // program cap 3 is smaller and wins
  const auto capped = ClusterEngine::run(graph, PageRankProgram(3), co);
  ASSERT_TRUE(capped.is_ok());
  EXPECT_EQ(capped.value().supersteps, 3U);

  co.max_supersteps = 1;  // option cap 1 is smaller and wins
  const auto one = ClusterEngine::run(graph, BfsProgram(0), co);
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(one.value().supersteps, 1U);
  EXPECT_FALSE(one.value().converged);
}

TEST(Cluster, SingleNodeHasNoRemoteTraffic) {
  const EdgeList graph = rmat(7, 800, 97);
  ClusterOptions co;
  co.num_nodes = 1;
  const auto result = ClusterEngine::run(graph, BfsProgram(0), co);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().remote_messages, 0U);
  EXPECT_EQ(result.value().remote_batches, 0U);
  EXPECT_EQ(result.value().bytes_on_wire, 0U);
  EXPECT_EQ(result.value().frames_sent, 0U);
}

TEST(Cluster, RemoteTrafficGrowsWithNodeCount) {
  const EdgeList graph = rmat(9, 6000, 99);
  const PageRankProgram program(3);
  std::uint64_t previous = 0;
  for (const unsigned nodes : {2U, 4U, 8U}) {
    ClusterOptions co;
    co.num_nodes = nodes;
    const auto result = ClusterEngine::run(graph, program, co);
    ASSERT_TRUE(result.is_ok());
    EXPECT_GT(result.value().remote_messages, previous);
    EXPECT_LE(result.value().remote_messages,
              result.value().total_messages);
    previous = result.value().remote_messages;
  }
}

TEST(Cluster, AccountingSumsAreConsistent) {
  const EdgeList graph = rmat(8, 1500, 101);
  ClusterOptions co;
  co.num_nodes = 3;
  const auto result = ClusterEngine::run(graph, PageRankProgram(4), co);
  ASSERT_TRUE(result.is_ok());
  const ClusterRunResult& r = result.value();
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (std::size_t i = 0; i < r.node_messages_sent.size(); ++i) {
    sent += r.node_messages_sent[i];
    received += r.node_messages_received[i];
  }
  EXPECT_EQ(sent, r.total_messages);
  EXPECT_EQ(received, r.total_messages);
}

TEST(Cluster, EdgeBalancedPartitioningReducesSendImbalance) {
  // Heavily skewed graph: vertex 0 owns most out-edges, so uniform
  // intervals overload node 0's dispatcher.
  EdgeList graph = star(4000);
  const ConnectedComponentsProgram program;
  double uniform_imbalance = 0.0;
  double balanced_imbalance = 0.0;
  for (const auto strategy : {PartitionStrategy::kUniformVertices,
                              PartitionStrategy::kBalancedEdges}) {
    ClusterOptions co;
    co.num_nodes = 4;
    co.partition = strategy;
    const auto result = ClusterEngine::run(graph, program, co);
    ASSERT_TRUE(result.is_ok());
    if (strategy == PartitionStrategy::kUniformVertices) {
      uniform_imbalance = result.value().send_imbalance();
    } else {
      balanced_imbalance = result.value().send_imbalance();
    }
  }
  EXPECT_LT(balanced_imbalance, uniform_imbalance);
}

// Runs a file-backed cluster BFS in a forked child that dies between the
// per-node checkpoint flushes (after `crash_after` nodes flushed), leaving
// the surviving headers for the parent to validate.
void run_cluster_crash_child(const std::string& dir, int crash_after) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: no gtest asserts, no exit handlers — _exit() fires inside
    // the engine's checkpoint sweep, mimicking an abrupt crash.
    set_cluster_checkpoint_crash_after_flushes(crash_after);
    const EdgeList graph = rmat(8, 2000, 91);
    ClusterOptions co;
    co.num_nodes = 3;
    co.value_store_dir = dir;
    (void)ClusterEngine::run(graph, BfsProgram(0), co);
    ::_exit(1);  // not reached: the crash hook exits first
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);
}

TEST(ClusterCrash, FileBackedRunCheckpointsEveryNodeStore) {
  auto dir = ScratchDir::create("cluster_ckpt");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(8, 2000, 91);
  ClusterOptions co;
  co.num_nodes = 3;
  co.value_store_dir = dir.value().file("stores");
  const auto result = ClusterEngine::run(graph, BfsProgram(0), co);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), BfsProgram(0));
  expect_payloads_equal(result.value().values, ref.values);
  const auto common = ClusterEngine::validate_value_stores(
      co.value_store_dir, co.num_nodes, "bfs");
  ASSERT_TRUE(common.is_ok()) << common.status().to_string();
  EXPECT_EQ(common.value(), result.value().supersteps);
}

TEST(ClusterCrash, ValidateRejectsTornCheckpointSweep) {
  auto dir = ScratchDir::create("cluster_torn");
  ASSERT_TRUE(dir.is_ok());
  const std::string stores = dir.value().file("stores");
  // Crash after node 0's checkpoint flushed but before node 1's: node 0's
  // header records the finished run, nodes 1..2 still say 0.
  run_cluster_crash_child(stores, /*crash_after=*/1);
  const auto torn = ClusterEngine::validate_value_stores(stores, 3, "bfs");
  ASSERT_FALSE(torn.is_ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(torn.status().to_string().find("torn"), std::string::npos)
      << torn.status().to_string();
}

TEST(ClusterCrash, CrashBeforeAnyFlushRollsBackToEpochZero) {
  auto dir = ScratchDir::create("cluster_epoch0");
  ASSERT_TRUE(dir.is_ok());
  const std::string stores = dir.value().file("stores");
  // Crash before the first per-node flush: every header still reads 0
  // completed supersteps — a consistent (fully rolled-back) cluster
  // epoch, so validation accepts it and recovery restarts from scratch.
  run_cluster_crash_child(stores, /*crash_after=*/0);
  const auto common = ClusterEngine::validate_value_stores(stores, 3, "bfs");
  ASSERT_TRUE(common.is_ok()) << common.status().to_string();
  EXPECT_EQ(common.value(), 0U);
}

TEST(ClusterCrash, ValidateRejectsWrongAppTagAndMissingNodes) {
  auto dir = ScratchDir::create("cluster_tag");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(8, 2000, 91);
  ClusterOptions co;
  co.num_nodes = 2;
  co.value_store_dir = dir.value().file("stores");
  ASSERT_TRUE(ClusterEngine::run(graph, BfsProgram(0), co).is_ok());
  // Stores were written by BFS; a CC run must not resume from them.
  const auto wrong_tag =
      ClusterEngine::validate_value_stores(co.value_store_dir, 2, "cc");
  ASSERT_FALSE(wrong_tag.is_ok());
  EXPECT_EQ(wrong_tag.status().code(), StatusCode::kCorruptData);
  // A 4-node validation of a 2-node run finds nodes 2..3 missing — the
  // same shape as a crash during store creation.
  const auto missing =
      ClusterEngine::validate_value_stores(co.value_store_dir, 4, "bfs");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kCorruptData);
}

TEST(Cluster, SumFoldOverflowSurfacesAsStatus) {
  // The overflow throws on a scheduler worker, in a node's apply or in
  // its end-of-superstep publish; the run must return it as a Status
  // instead of terminating the process.
  ClusterOptions co;
  co.num_nodes = 2;
  const auto result = ClusterEngine::run(testing::diamond_graph(),
                                         testing::OversizedSumProgram(), co);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("sum fold"), std::string::npos)
      << result.status().to_string();
}

TEST(Cluster, RejectsBadOptions) {
  const EdgeList graph = chain(8);
  ClusterOptions co;
  co.num_nodes = 0;
  EXPECT_FALSE(ClusterEngine::run(graph, BfsProgram(0), co).is_ok());
  // Rejected before any socket or thread exists: each rank thread
  // brings a transport worker per peer, so threads grow as N².
  co.num_nodes = ClusterEngine::kMaxNodes + 1;
  const auto too_many = ClusterEngine::run(graph, BfsProgram(0), co);
  ASSERT_FALSE(too_many.is_ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  const EdgeList empty;
  EXPECT_FALSE(ClusterEngine::run(empty, BfsProgram(0), {}).is_ok());
}

}  // namespace
}  // namespace gpsa
