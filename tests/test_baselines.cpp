// Tests for the two baseline engines: shard layout invariants (PSW),
// streaming behaviour (X-Stream), and agreement with the sequential
// reference on all apps.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "baselines/graphchi/shard.hpp"
#include "baselines/xstream/xstream_engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_payloads_equal;

BaselineOptions small_options(unsigned partitions = 3) {
  BaselineOptions bo;
  bo.threads = 2;
  bo.partitions = partitions;
  return bo;
}

// --- ShardSet ----------------------------------------------------------------

TEST(ShardSet, PartitionsEdgesByDestination) {
  auto dir = ScratchDir::create("shards");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList g = rmat(7, 600, 3);
  const auto shards = ShardSet::build(g, 4, dir.value().path());
  ASSERT_TRUE(shards.is_ok()) << shards.status().to_string();
  const ShardSet& s = shards.value();
  EdgeCount total = 0;
  for (unsigned q = 0; q < s.num_partitions(); ++q) {
    for (const ShardEdge& e : s.shard(q)) {
      ASSERT_GE(e.dst, s.interval_begin(q));
      ASSERT_LT(e.dst, s.interval_end(q));
      ASSERT_EQ(e.stamp, ShardEdge::kNeverStamped);
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(ShardSet, ShardsAreSortedBySourceWithCorrectWindows) {
  auto dir = ScratchDir::create("shardw");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList g = rmat(7, 800, 5);
  const auto shards = ShardSet::build(g, 5, dir.value().path());
  ASSERT_TRUE(shards.is_ok());
  const ShardSet& s = shards.value();
  for (unsigned q = 0; q < s.num_partitions(); ++q) {
    const auto shard = s.shard(q);
    for (std::size_t i = 1; i < shard.size(); ++i) {
      ASSERT_LE(shard[i - 1].src, shard[i].src);
    }
    for (unsigned p = 0; p < s.num_partitions(); ++p) {
      for (std::uint64_t i = s.window_begin(q, p); i < s.window_end(q, p);
           ++i) {
        ASSERT_GE(shard[i].src, s.interval_begin(p));
        ASSERT_LT(shard[i].src, s.interval_end(p));
      }
    }
  }
}

TEST(ShardSet, IntervalOfIsConsistent) {
  auto dir = ScratchDir::create("shardi");
  ASSERT_TRUE(dir.is_ok());
  const auto shards = ShardSet::build(chain(100), 7, dir.value().path());
  ASSERT_TRUE(shards.is_ok());
  const ShardSet& s = shards.value();
  for (VertexId v = 0; v < 100; ++v) {
    const unsigned p = s.interval_of(v);
    ASSERT_GE(v, s.interval_begin(p));
    ASSERT_LT(v, s.interval_end(p));
  }
}

// --- PSW engine --------------------------------------------------------------

TEST(PswEngine, BfsMatchesReference) {
  const EdgeList g = rmat(9, 4000, 7);
  const BfsProgram program(0);
  const auto r = PswEngine::run(g, program, small_options());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
  EXPECT_EQ(r.value().total_messages, ref.total_messages);
  EXPECT_EQ(r.value().supersteps, ref.supersteps);
  EXPECT_TRUE(r.value().converged);
}

TEST(PswEngine, CcMatchesReference) {
  const EdgeList g = erdos_renyi(300, 500, 9);
  const ConnectedComponentsProgram program;
  const auto r = PswEngine::run(g, program, small_options(4));
  ASSERT_TRUE(r.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
}

TEST(PswEngine, PageRankMatchesReference) {
  const EdgeList g = rmat(8, 2500, 13);
  const PageRankProgram program(5);
  const auto r = PswEngine::run(g, program, small_options());
  ASSERT_TRUE(r.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
}

TEST(PswEngine, SsspMatchesOracle) {
  const EdgeList g = rmat(8, 2000, 15);
  const SsspProgram program(0);
  const auto r = PswEngine::run(g, program, small_options());
  ASSERT_TRUE(r.is_ok());
  expect_payloads_equal(r.value().values,
                        oracle_sssp(Csr::from_edges(g), 0));
}

TEST(PswEngine, SinglePartitionSingleThread) {
  const EdgeList g = diamond_graph();
  BaselineOptions bo;
  bo.threads = 1;
  bo.partitions = 1;
  const auto r = PswEngine::run(g, BfsProgram(0), bo);
  ASSERT_TRUE(r.is_ok());
  expect_payloads_equal(r.value().values,
                        oracle_bfs_levels(Csr::from_edges(g), 0));
}

TEST(PswEngine, RespectsSuperstepBudget) {
  BaselineOptions bo = small_options();
  bo.max_supersteps = 2;
  const auto r = PswEngine::run(chain(32), BfsProgram(0), bo);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().supersteps, 2U);
  EXPECT_FALSE(r.value().converged);
}

// --- X-Stream engine ---------------------------------------------------------

TEST(XStreamEngine, BfsMatchesReference) {
  const EdgeList g = rmat(9, 4000, 7);
  const BfsProgram program(0);
  const auto r = XStreamEngine::run(g, program, small_options());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
  EXPECT_EQ(r.value().total_messages, ref.total_messages);
}

TEST(XStreamEngine, CcMatchesReference) {
  const EdgeList g = erdos_renyi(256, 700, 19);
  const ConnectedComponentsProgram program;
  const auto r = XStreamEngine::run(g, program, small_options(4));
  ASSERT_TRUE(r.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
}

TEST(XStreamEngine, PageRankMatchesReference) {
  const EdgeList g = rmat(8, 2500, 13);
  const PageRankProgram program(5);
  const auto r = XStreamEngine::run(g, program, small_options());
  ASSERT_TRUE(r.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(g), program);
  expect_payloads_equal(r.value().values, ref.values);
}

TEST(XStreamEngine, StreamsEveryEdgeEverySuperstep) {
  // The defining X-Stream property the paper's BFS/CC comparisons hinge
  // on: edges_streamed == |E| * supersteps regardless of frontier size.
  const EdgeList g = chain(16);
  const auto r = XStreamEngine::run(g, BfsProgram(0), small_options(2));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().edges_streamed,
            g.num_edges() * r.value().supersteps);
  // BFS on a 16-chain needs 16 supersteps; X-Stream therefore streams
  // 15 * 16 edges while only ~15 messages ever mattered.
  EXPECT_GT(r.value().edges_streamed, r.value().total_messages * 5);
}

TEST(XStreamEngine, SinglePartition) {
  const EdgeList g = diamond_graph();
  BaselineOptions bo;
  bo.threads = 1;
  bo.partitions = 1;
  const auto r = XStreamEngine::run(g, BfsProgram(0), bo);
  ASSERT_TRUE(r.is_ok());
  expect_payloads_equal(r.value().values,
                        oracle_bfs_levels(Csr::from_edges(g), 0));
}

TEST(XStreamEngine, RespectsSuperstepBudget) {
  BaselineOptions bo = small_options();
  bo.max_supersteps = 3;
  const auto r = XStreamEngine::run(chain(32), BfsProgram(0), bo);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().supersteps, 3U);
}

TEST(XStreamEngine, InMemoryModeMatchesOutOfCore) {
  const EdgeList g = rmat(8, 3000, 61);
  const PageRankProgram program(5);
  BaselineOptions ooc = small_options();
  BaselineOptions mem = small_options();
  mem.xstream_in_memory = true;
  const auto disk = XStreamEngine::run(g, program, ooc);
  const auto ram = XStreamEngine::run(g, program, mem);
  ASSERT_TRUE(disk.is_ok());
  ASSERT_TRUE(ram.is_ok());
  EXPECT_EQ(ram.value().total_messages, disk.value().total_messages);
  EXPECT_EQ(ram.value().edges_streamed, disk.value().edges_streamed);
  expect_payloads_equal(ram.value().values, disk.value().values);
}

TEST(XStreamEngine, InMemoryBfsExact) {
  const EdgeList g = rmat(8, 2000, 63);
  BaselineOptions mem = small_options();
  mem.xstream_in_memory = true;
  const auto r = XStreamEngine::run(g, BfsProgram(0), mem);
  ASSERT_TRUE(r.is_ok());
  expect_payloads_equal(r.value().values,
                        oracle_bfs_levels(Csr::from_edges(g), 0));
}

TEST(Baselines, SumFoldOverflowSurfacesAsStatus) {
  // The overflow throws on a gather thread; the run must return it as a
  // Status, as the engine does, instead of terminating the process.
  const testing::OversizedSumProgram program;
  const auto psw = PswEngine::run(diamond_graph(), program, small_options());
  ASSERT_FALSE(psw.is_ok());
  EXPECT_NE(psw.status().message().find("sum fold"), std::string::npos)
      << psw.status().to_string();
  const auto xs = XStreamEngine::run(diamond_graph(), program, small_options());
  ASSERT_FALSE(xs.is_ok());
  EXPECT_NE(xs.status().message().find("sum fold"), std::string::npos)
      << xs.status().to_string();
}

TEST(Baselines, RejectEmptyGraph) {
  const EdgeList empty;
  EXPECT_FALSE(PswEngine::run(empty, BfsProgram(0), {}).is_ok());
  EXPECT_FALSE(XStreamEngine::run(empty, BfsProgram(0), {}).is_ok());
}

}  // namespace
}  // namespace gpsa
