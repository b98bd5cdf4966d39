// Tests for the engine extensions beyond the paper's minimum: worker
// exception handling (§V.C) and the additional vertex programs
// (multi-source reachability, in-degree).
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/degree_count.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;
using testing::OversizedSumProgram;

EngineOptions small_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 8;
  return eo;
}

// --- Worker exception handling (§V.C) ----------------------------------------

/// Throws from compute() when a poisoned message value arrives.
class PoisonedComputeProgram final : public Program {
 public:
  std::string name() const override { return "poisoned-compute"; }
  InitialState init(VertexId v, VertexId /*n*/) const override {
    return {v, true};
  }
  Payload gen_msg(VertexId /*s*/, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    if (message == 3) {  // label of vertex 3 propagating
      throw std::runtime_error("poisoned message");
    }
    return std::min(accumulator, message);
  }
};

/// Throws from gen_msg() for one source vertex.
class PoisonedDispatchProgram final : public Program {
 public:
  std::string name() const override { return "poisoned-dispatch"; }
  InitialState init(VertexId v, VertexId /*n*/) const override {
    return {v, true};
  }
  Payload gen_msg(VertexId src, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    if (src == 2) {
      throw std::runtime_error("poisoned source");
    }
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    return std::min(accumulator, message);
  }
};

TEST(WorkerFailure, ComputeExceptionSurfacesAsStatus) {
  const EdgeList graph = diamond_graph();
  const PoisonedComputeProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("poisoned message"),
            std::string::npos);
}

TEST(WorkerFailure, DispatchExceptionSurfacesAsStatus) {
  const EdgeList graph = diamond_graph();
  const PoisonedDispatchProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("poisoned source"),
            std::string::npos);
}

TEST(WorkerFailure, SumFoldOverflowSurfacesAsStatus) {
  // 100 + 100 is past the fixed-point accumulator's 2^7 bound: the job
  // fails with a Status instead of storing a wrapped sum.
  const EdgeList graph = diamond_graph();
  const OversizedSumProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("sum fold"), std::string::npos);
}

TEST(WorkerFailure, EngineRemainsUsableAfterFailure) {
  const EdgeList graph = diamond_graph();
  const PoisonedComputeProgram bad;
  ASSERT_FALSE(Engine::run(graph, bad, small_options()).is_ok());
  // A clean run right after must succeed with correct results.
  const BfsProgram good(0);
  const auto result = Engine::run(graph, good, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  expect_payloads_equal(result.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

// --- Multi-source reachability ------------------------------------------------

TEST(MultiBfs, MatchesPerSourceOracles) {
  const EdgeList graph = rmat(8, 1500, 41);
  const Csr csr = Csr::from_edges(graph);
  const std::vector<VertexId> sources = {0, 7, 100, 200};
  const MultiSourceReachabilityProgram program(sources);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // Expected mask: OR over per-source BFS reachability.
  std::vector<Payload> expected(csr.num_vertices(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto levels = oracle_bfs_levels(csr, sources[i]);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (levels[v] != kPayloadInfinity) {
        expected[v] |= Payload{1} << i;
      }
    }
  }
  expect_payloads_equal(result.value().values, expected);
}

TEST(MultiBfs, AgreesWithReferenceExecutor) {
  const EdgeList graph = grid(12, 13);
  const MultiSourceReachabilityProgram program({0, 50, 155});
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(MultiBfs, SingleSourceEqualsBfsReachability) {
  const EdgeList graph = binary_tree(127);
  const MultiSourceReachabilityProgram program({0});
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  const auto levels = oracle_bfs_levels(Csr::from_edges(graph), 0);
  for (VertexId v = 0; v < levels.size(); ++v) {
    EXPECT_EQ(result.value().values[v] != 0, levels[v] != kPayloadInfinity)
        << "vertex " << v;
  }
}

// --- In-degree ----------------------------------------------------------------

TEST(InDegree, MatchesTransposeDegrees) {
  const EdgeList graph = rmat(8, 2000, 43);
  const InDegreeProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().supersteps, 1U);
  const Csr transpose = Csr::from_edges(graph).transpose();
  for (VertexId v = 0; v < transpose.num_vertices(); ++v) {
    ASSERT_EQ(result.value().values[v], transpose.out_degree(v))
        << "vertex " << v;
  }
}

}  // namespace
}  // namespace gpsa
