// Stress and scale tests: long superstep protocols, fan-out extremes,
// larger graphs, and wide actor ensembles — the shapes most likely to
// expose protocol races or counter drift.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "baselines/xstream/xstream_engine.hpp"
#include "cluster/cluster_engine.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

TEST(Stress, TwoThousandSuperstepsOnAChain) {
  // Every superstep moves the frontier one hop: 2000 full
  // ITERATION_START / DISPATCH_OVER / COMPUTE_OVER rounds.
  constexpr VertexId kLength = 2000;
  const EdgeList graph = chain(kLength);
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().supersteps, kLength);  // kLength-1 hops + quiesce
  EXPECT_TRUE(result.value().converged);
  EXPECT_EQ(result.value().values[kLength - 1], kLength - 1);
}

TEST(Stress, MassiveFanOutWithTinyBatches) {
  // One hub fans out to 20k leaves with batch size 8: thousands of
  // mailbox batches in a single superstep.
  const EdgeList graph = star(20'000);
  const ConnectedComponentsProgram program;
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 4;
  eo.scheduler_workers = 2;
  eo.message_batch = 8;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok());
  for (Payload label : result.value().values) {
    ASSERT_EQ(label, 0U);
  }
}

TEST(Stress, WideActorEnsemble) {
  const EdgeList graph = rmat(11, 30'000, 7);
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 16;
  eo.num_computers = 16;
  eo.scheduler_workers = 4;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Stress, LargerRmatAllEnginesAgree) {
  const EdgeList graph = rmat(13, 120'000, 17);
  const Csr csr = Csr::from_edges(graph);
  const PageRankProgram program(4);
  const ReferenceResult ref = reference_run(csr, program);

  EngineOptions eo;
  eo.num_dispatchers = 4;
  eo.num_computers = 4;
  eo.scheduler_workers = 2;
  const auto gpsa = Engine::run(graph, program, eo);
  ASSERT_TRUE(gpsa.is_ok());
  expect_payloads_equal(gpsa.value().values, ref.values);

  BaselineOptions bo;
  bo.threads = 2;
  bo.partitions = 6;
  const auto psw = PswEngine::run(graph, program, bo);
  ASSERT_TRUE(psw.is_ok());
  expect_payloads_equal(psw.value().values, ref.values);

  const auto xs = XStreamEngine::run(graph, program, bo);
  ASSERT_TRUE(xs.is_ok());
  expect_payloads_equal(xs.value().values, ref.values);
}

TEST(Stress, SixteenNodeCluster) {
  const EdgeList graph = rmat(11, 40'000, 23);
  const ConnectedComponentsProgram program;
  ClusterOptions co;
  co.num_nodes = 16;
  co.message_batch = 64;
  const auto result = ClusterEngine::run(graph, program, co);
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Stress, RepeatedRunsAreDeterministicForIntegerApps) {
  const EdgeList graph = rmat(10, 20'000, 29);
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 3;
  eo.num_computers = 3;
  eo.scheduler_workers = 2;
  std::vector<Payload> first;
  for (int run = 0; run < 5; ++run) {
    const auto result = Engine::run(graph, program, eo);
    ASSERT_TRUE(result.is_ok());
    if (run == 0) {
      first = result.value().values;
    } else {
      ASSERT_EQ(result.value().values, first) << "run " << run;
    }
  }
}

TEST(Stress, SingleMessageBatchesWithCheckpointEverySuperstep) {
  // Batch size 1 maximizes mailbox traffic (every generated message is its
  // own push/park/notify round) while per-superstep checkpoints interleave
  // msync into the two-column flip — the densest version of the protocols
  // the sanitizer stress suite checks at the substrate level.
#if defined(GPSA_SANITIZE_ACTIVE)
  const EdgeList graph = rmat(9, 8'000, 19);
#else
  const EdgeList graph = rmat(10, 30'000, 19);
#endif
  const BfsProgram program(0);
  EngineOptions eo;
  eo.num_dispatchers = 4;
  eo.num_computers = 4;
  eo.scheduler_workers = 2;
  eo.message_batch = 1;
  eo.checkpoint_each_superstep = true;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Stress, ActorOversubscriptionParksMailboxesConstantly) {
  // Far more actors than workers: mailboxes oscillate between empty and
  // non-empty, so the scheduler's idle/scheduled transition and the
  // MpscQueue park/notify protocol run at maximum frequency.
#if defined(GPSA_SANITIZE_ACTIVE)
  const EdgeList graph = rmat(9, 6'000, 43);
#else
  const EdgeList graph = rmat(11, 40'000, 43);
#endif
  const ConnectedComponentsProgram program;
  EngineOptions eo;
  eo.num_dispatchers = 8;
  eo.num_computers = 8;
  eo.scheduler_workers = 2;
  eo.message_batch = 4;
  const auto result = Engine::run(graph, program, eo);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(Stress, BackToBackEnginesShareNothing) {
  // Interleave engines and algorithms to shake out leaked global state.
  const EdgeList graph = rmat(9, 6'000, 31);
  const Csr csr = Csr::from_edges(graph);
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  for (int round = 0; round < 3; ++round) {
    const BfsProgram bfs(0);
    const auto a = Engine::run(graph, bfs, eo);
    ASSERT_TRUE(a.is_ok());
    expect_payloads_equal(a.value().values,
                          reference_run(csr, bfs).values);
    const ConnectedComponentsProgram cc;
    BaselineOptions bo;
    bo.threads = 2;
    const auto b = PswEngine::run(graph, cc, bo);
    ASSERT_TRUE(b.is_ok());
    expect_payloads_equal(b.value().values, reference_run(csr, cc).values);
  }
}

}  // namespace
}  // namespace gpsa
