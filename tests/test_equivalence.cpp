// Cross-engine equivalence property suite.
//
// Property: for every graph family and every app, GPSA, the PSW baseline,
// and the X-Stream baseline all produce the sequential reference
// executor's results (exactly for integer payloads, within tolerance for
// PageRank) and the same message totals. This is what makes the benchmark
// comparisons apples-to-apples.
#include <gtest/gtest.h>

#include <memory>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/degree_count.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "baselines/xstream/xstream_engine.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

struct GraphCase {
  const char* name;
  EdgeList (*make)();
};

EdgeList make_rmat_small() { return rmat(8, 1800, 101); }
EdgeList make_rmat_dense() { return rmat(7, 4000, 202); }
EdgeList make_er() { return erdos_renyi(400, 1600, 303); }
EdgeList make_grid() { return grid(17, 23); }
EdgeList make_tree() { return binary_tree(255); }
EdgeList make_star() { return star(200); }
EdgeList make_chain() { return chain(120); }
EdgeList make_with_isolated() {
  EdgeList g = rmat(7, 900, 404);
  g.ensure_vertices(g.num_vertices() + 40);
  return g;
}

const GraphCase kGraphCases[] = {
    {"RmatSmall", make_rmat_small}, {"RmatDense", make_rmat_dense},
    {"ErdosRenyi", make_er},        {"Grid", make_grid},
    {"BinaryTree", make_tree},      {"Star", make_star},
    {"Chain", make_chain},          {"WithIsolated", make_with_isolated},
};

class EquivalenceTest : public ::testing::TestWithParam<GraphCase> {
 protected:
  struct AllResults {
    std::vector<Payload> gpsa;
    std::vector<Payload> psw;
    std::vector<Payload> xstream;
    std::uint64_t gpsa_messages = 0;
    std::uint64_t psw_messages = 0;
    std::uint64_t xstream_messages = 0;
  };

  static AllResults run_all(const EdgeList& graph, const Program& program) {
    AllResults out;
    EngineOptions eo;
    eo.num_dispatchers = 3;
    eo.num_computers = 3;
    eo.scheduler_workers = 2;
    eo.message_batch = 16;
    auto gpsa = Engine::run(graph, program, eo);
    EXPECT_TRUE(gpsa.is_ok()) << gpsa.status().to_string();
    out.gpsa = gpsa.value().values;
    out.gpsa_messages = gpsa.value().total_messages;

    BaselineOptions bo;
    bo.threads = 2;
    bo.partitions = 3;
    auto psw = PswEngine::run(graph, program, bo);
    EXPECT_TRUE(psw.is_ok()) << psw.status().to_string();
    out.psw = psw.value().values;
    out.psw_messages = psw.value().total_messages;

    auto xs = XStreamEngine::run(graph, program, bo);
    EXPECT_TRUE(xs.is_ok()) << xs.status().to_string();
    out.xstream = xs.value().values;
    out.xstream_messages = xs.value().total_messages;
    return out;
  }
};

TEST_P(EquivalenceTest, Bfs) {
  const EdgeList graph = GetParam().make();
  const BfsProgram program(0);
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
  EXPECT_EQ(all.gpsa_messages, ref.total_messages);
  EXPECT_EQ(all.psw_messages, ref.total_messages);
  EXPECT_EQ(all.xstream_messages, ref.total_messages);
}

TEST_P(EquivalenceTest, ConnectedComponents) {
  const EdgeList graph = GetParam().make();
  const ConnectedComponentsProgram program;
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
}

TEST_P(EquivalenceTest, Sssp) {
  const EdgeList graph = GetParam().make();
  const SsspProgram program(0);
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
  // And the reference itself agrees with Dijkstra.
  expect_payloads_equal(ref.values,
                        oracle_sssp(Csr::from_edges(graph), 0));
}

TEST_P(EquivalenceTest, PageRankFiveSupersteps) {
  const EdgeList graph = GetParam().make();
  const PageRankProgram program(5);
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
  EXPECT_EQ(all.gpsa_messages, ref.total_messages);
  EXPECT_EQ(all.psw_messages, ref.total_messages);
  EXPECT_EQ(all.xstream_messages, ref.total_messages);
}

TEST_P(EquivalenceTest, MultiSourceReachability) {
  const EdgeList graph = GetParam().make();
  const VertexId n = graph.num_vertices();
  const MultiSourceReachabilityProgram program(
      {0, n / 3, n / 2, n - 1});
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
}

TEST_P(EquivalenceTest, InDegree) {
  const EdgeList graph = GetParam().make();
  const InDegreeProgram program;
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  const AllResults all = run_all(graph, program);
  expect_payloads_equal(all.gpsa, ref.values);
  expect_payloads_equal(all.psw, ref.values);
  expect_payloads_equal(all.xstream, ref.values);
  // And the reference agrees with the transpose degrees.
  const Csr transpose = Csr::from_edges(graph).transpose();
  for (VertexId v = 0; v < transpose.num_vertices(); ++v) {
    ASSERT_EQ(ref.values[v], transpose.out_degree(v)) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(GraphFamilies, EquivalenceTest,
                         ::testing::ValuesIn(kGraphCases),
                         [](const auto& param_info) { return param_info.param.name; });

// --- Engine-configuration sweep: results must be config-invariant ------------

struct ConfigCase {
  const char* name;
  unsigned dispatchers;
  unsigned computers;
  unsigned workers;
  std::size_t batch;
};

const ConfigCase kConfigCases[] = {
    {"Minimal", 1, 1, 1, 1},
    {"Tiny batches", 2, 3, 2, 2},
    {"Wide", 8, 8, 4, 64},
    {"ManyDispatchers", 6, 1, 3, 32},
    {"ManyComputers", 1, 6, 3, 256},
};

class ConfigSweepTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweepTest, BfsAndCcInvariantUnderConfig) {
  const ConfigCase& cfg = GetParam();
  const EdgeList graph = rmat(8, 2200, 777);
  EngineOptions eo;
  eo.num_dispatchers = cfg.dispatchers;
  eo.num_computers = cfg.computers;
  eo.scheduler_workers = cfg.workers;
  eo.message_batch = cfg.batch;

  const Csr csr = Csr::from_edges(graph);
  {
    const BfsProgram program(0);
    const auto r = Engine::run(graph, program, eo);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expect_payloads_equal(r.value().values,
                          reference_run(csr, program).values);
  }
  {
    const ConnectedComponentsProgram program;
    const auto r = Engine::run(graph, program, eo);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expect_payloads_equal(r.value().values,
                          reference_run(csr, program).values);
  }
}

INSTANTIATE_TEST_SUITE_P(EngineConfigs, ConfigSweepTest,
                         ::testing::ValuesIn(kConfigCases),
                         [](const auto& param_info) {
                           std::string name = param_info.param.name;
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Seed sweep (randomized property test) -----------------------------------

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, AllEnginesAgreeOnRandomGraph) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const unsigned scale = 6 + static_cast<unsigned>(rng.next_below(3));
  const EdgeCount edges = 300 + rng.next_below(3000);
  const EdgeList graph = rmat(scale, edges, seed);

  const BfsProgram bfs(static_cast<VertexId>(
      rng.next_below(graph.num_vertices())));
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), bfs);

  EngineOptions eo;
  eo.num_dispatchers = 1 + static_cast<unsigned>(rng.next_below(4));
  eo.num_computers = 1 + static_cast<unsigned>(rng.next_below(4));
  eo.scheduler_workers = 1 + static_cast<unsigned>(rng.next_below(3));
  eo.message_batch = 1 + rng.next_below(64);
  const auto gpsa = Engine::run(graph, bfs, eo);
  ASSERT_TRUE(gpsa.is_ok()) << gpsa.status().to_string();
  expect_payloads_equal(gpsa.value().values, ref.values);

  BaselineOptions bo;
  bo.threads = 1 + static_cast<unsigned>(rng.next_below(3));
  bo.partitions = 1 + static_cast<unsigned>(rng.next_below(6));
  const auto psw = PswEngine::run(graph, bfs, bo);
  ASSERT_TRUE(psw.is_ok());
  expect_payloads_equal(psw.value().values, ref.values);
  const auto xs = XStreamEngine::run(graph, bfs, bo);
  ASSERT_TRUE(xs.is_ok());
  expect_payloads_equal(xs.value().values, ref.values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace gpsa
