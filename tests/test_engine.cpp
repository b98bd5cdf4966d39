// Integration tests for the GPSA core engine: the actor protocol
// (Algorithms 1-3), value-file column flipping, selective dispatch, and
// agreement with the sequential reference executor on all apps.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_payloads_equal;

EngineOptions small_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 4;  // tiny batches exercise the flush paths
  return eo;
}

TEST(Engine, BfsOnDiamondMatchesOracle) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto oracle =
      oracle_bfs_levels(Csr::from_edges(graph), /*root=*/0);
  expect_payloads_equal(result.value().values, oracle);
  EXPECT_TRUE(result.value().converged);
}

TEST(Engine, BfsLevelsAreCorrectValues) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& values = result.value().values;
  EXPECT_EQ(values[0], 0U);
  EXPECT_EQ(values[1], 1U);
  EXPECT_EQ(values[2], 1U);
  EXPECT_EQ(values[3], 2U);
  EXPECT_EQ(values[4], 3U);
  EXPECT_EQ(values[5], kPayloadInfinity);  // isolated vertex unreached
}

TEST(Engine, CcOnChainFindsOneComponent) {
  // Chain symmetrized: everything collapses to label 0.
  EdgeList graph = chain(8);
  EdgeList sym;
  sym.ensure_vertices(graph.num_vertices());
  for (const Edge& e : graph.edges()) {
    sym.add_edge(e.src, e.dst);
    sym.add_edge(e.dst, e.src);
  }
  const ConnectedComponentsProgram program;
  const auto result = Engine::run(sym, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  for (Payload label : result.value().values) {
    EXPECT_EQ(label, 0U);
  }
  EXPECT_TRUE(result.value().converged);
}

TEST(Engine, PageRankMatchesReferenceOnRmat) {
  const EdgeList graph = rmat(9, 3000, /*seed=*/7);
  const PageRankProgram program(/*iterations=*/5);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  EXPECT_EQ(result.value().supersteps, ref.supersteps);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, BfsMatchesReferenceOnRmat) {
  const EdgeList graph = rmat(9, 4000, /*seed=*/11);
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, SsspMatchesDijkstraOracle) {
  const EdgeList graph = rmat(8, 2000, /*seed=*/13);
  const SsspProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto oracle = oracle_sssp(Csr::from_edges(graph), /*source=*/0);
  expect_payloads_equal(result.value().values, oracle);
}

TEST(Engine, SuperstepBudgetCapsRun) {
  const EdgeList graph = chain(64);
  BfsProgram program(0);
  EngineOptions eo = small_options();
  eo.max_supersteps = 3;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 3U);
  EXPECT_FALSE(result.value().converged);
  // Frontier advanced exactly 3 hops.
  EXPECT_EQ(result.value().values[3], 3U);
  EXPECT_EQ(result.value().values[4], kPayloadInfinity);
}

TEST(Engine, SuperstepCapZeroMeansUncapped) {
  // 0 is "no engine-side cap", never "halt at zero": BFS must run the
  // whole chain down and converge.
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 0;
  const auto result = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().converged);
  EXPECT_EQ(result.value().supersteps, 16U);
  EXPECT_EQ(result.value().values[15], 15U);
}

TEST(Engine, SuperstepCapOneRunsExactlyOneSuperstep) {
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 1;
  const auto result = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 1U);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().values[1], 1U);
  EXPECT_EQ(result.value().values[2], kPayloadInfinity);
}

TEST(Engine, SmallerProgramCapWinsOverEngineCap) {
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 10;
  const auto result = Engine::run(graph, PageRankProgram(3), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 3U);
}

TEST(Engine, ProgramCapZeroRunsZeroSupersteps) {
  // A zero *program* budget really is a zero budget (unlike the engine
  // option, where 0 means uncapped): no superstep runs, and the result is
  // the init values.
  const EdgeList graph = chain(16);
  EngineOptions eo = small_options();
  eo.max_supersteps = 0;
  const auto result = Engine::run(graph, PageRankProgram(0), eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, 0U);
  EXPECT_FALSE(result.value().converged);
  EXPECT_EQ(result.value().total_messages, 0U);
  for (const Payload v : result.value().values) {
    EXPECT_FLOAT_EQ(payload_to_float(v), 1.0F / 16.0F);
  }
}

TEST(Engine, MessageCountsFollowFrontier) {
  // On a chain, each BFS superstep dispatches exactly one message until
  // the tail, then a zero-message superstep terminates the run.
  const EdgeList graph = chain(5);
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& msgs = result.value().superstep_messages;
  ASSERT_EQ(msgs.size(), 5U);
  for (std::size_t s = 0; s + 1 < msgs.size(); ++s) {
    EXPECT_EQ(msgs[s], 1U) << "superstep " << s;
  }
  EXPECT_EQ(msgs.back(), 0U);
}

TEST(Engine, SingleDispatcherSingleComputer) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 1;
  eo.num_computers = 1;
  eo.scheduler_workers = 1;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, ManyActorsOnTinyGraph) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 8;  // more dispatchers than non-empty intervals
  eo.num_computers = 8;
  eo.scheduler_workers = 4;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  expect_payloads_equal(result.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

TEST(Engine, RejectsZeroWorkerOptions) {
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 0;
  const auto result = Engine::run(graph, program, eo);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsEmptyGraph) {
  const EdgeList graph;
  const BfsProgram program(0);
  const auto result = Engine::run(graph, program, small_options());
  EXPECT_FALSE(result.is_ok());
}

TEST(Engine, ReportsPerSuperstepStats) {
  const EdgeList graph = rmat(8, 1000, /*seed=*/5);
  const PageRankProgram program(4);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const RunResult& r = result.value();
  EXPECT_EQ(r.superstep_seconds.size(), r.supersteps);
  EXPECT_EQ(r.superstep_messages.size(), r.supersteps);
  EXPECT_EQ(r.superstep_updates.size(), r.supersteps);
  std::uint64_t sum = 0;
  for (auto m : r.superstep_messages) {
    sum += m;
  }
  EXPECT_EQ(sum, r.total_messages);
  EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(Engine, RunsFromFigure4bCsrWithoutDegrees) {
  // The Fig. 4b on-disk variant (no inline degrees) drives the
  // dispatcher's degree-from-offsets fallback.
  auto dir = ScratchDir::create("nodeg");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(8, 2200, 47);
  const std::string base = dir.value().file("g.csr");
  ASSERT_TRUE(preprocess_edges_to_csr(graph, base,
                                      /*with_degree=*/false)
                  .is_ok());
  const PageRankProgram program(5);
  EngineOptions eo = small_options();
  eo.work_dir = dir.value().path();
  const auto result = Engine::run_from_csr(base, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref =
      reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Engine, WorkDirFilesAreCreatedAndReusable) {
  auto dir = ScratchDir::create("workdir");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions eo = small_options();
  eo.work_dir = dir.value().path();
  ASSERT_TRUE(Engine::run(graph, program, eo).is_ok());
  EXPECT_TRUE(file_exists(dir.value().file("graph.csr")));
  EXPECT_TRUE(file_exists(dir.value().file("graph.csr.idx")));
  EXPECT_TRUE(file_exists(dir.value().file("bfs.values")));
  // Second run over the same directory (files overwritten) still works.
  const auto again = Engine::run(graph, program, eo);
  ASSERT_TRUE(again.is_ok());
  expect_payloads_equal(again.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

TEST(Engine, WorkingSetAndIoPopulated) {
  const EdgeList graph = rmat(8, 1200, 53);
  const PageRankProgram program(3);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result.value().working_set_bytes, 0U);
  EXPECT_GT(result.value().io.bytes_read, 0U);
  EXPECT_GT(result.value().preprocess_seconds, 0.0);
}

}  // namespace
}  // namespace gpsa
