// Worklist/delta execution mode (DESIGN.md §12).
//
// The contract under test: worklist dispatch (active-bitmap iteration)
// touches exactly the vertex set a sweep would — a bit set in generation
// g is a clear stale flag in column g — so every app's results are
// identical across execution modes, while the per-superstep work
// (vertex checks + streamed entries) shrinks from O(V) to O(active).
// Plus the delta-programming variant (PageRankDeltaProgram): messages
// carry residuals, re-activation is gated on GPSA_DELTA_EPS, and the run
// quiesces on its own instead of exhausting an iteration budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <set>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/exec_mode.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

EngineOptions matrix_options(ExecMode exec) {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 8;  // tiny batches exercise the flush paths
  eo.exec = exec;
  return eo;
}

std::vector<Payload> must_run(const EdgeList& graph, const Program& program,
                              const EngineOptions& eo) {
  const auto result = Engine::run(graph, program, eo);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.value().values : std::vector<Payload>{};
}

/// Chain with edges in both directions: every vertex has in-edges, so
/// PageRank's fixed point is reached for all of them (no isolated or
/// dangling corner cases in the tolerance comparison).
EdgeList bidirectional_chain(VertexId n) {
  EdgeList g;
  for (VertexId v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1);
    g.add_edge(v + 1, v);
  }
  g.ensure_vertices(n);
  return g;
}

// --- Bit-identical results across exec modes -------------------------------

TEST(Worklist, MonotoneAppsBitIdenticalAcrossExec) {
  const EdgeList graph = rmat(8, 2000, 42);
  const Csr csr = Csr::from_edges(graph);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const SsspProgram sssp(0);
  const MultiSourceReachabilityProgram multi({0, 7, 63});
  const Program* const programs[] = {&bfs, &cc, &sssp, &multi};
  for (const Program* program : programs) {
    const ReferenceResult ref = reference_run(csr, *program);
    const auto sweep =
        must_run(graph, *program, matrix_options(ExecMode::kSweep));
    const auto worklist =
        must_run(graph, *program, matrix_options(ExecMode::kWorklist));
    SCOPED_TRACE(program->name());
    expect_payloads_equal(worklist, sweep);
    expect_payloads_equal(worklist, ref.values);
  }
}

TEST(Worklist, PageRankBitIdenticalUnderDeterministicSchedule) {
  // Both modes dispatch the same vertex set, and the exact sum fold makes
  // the result independent of arrival order: bit-identical under a
  // single-actor schedule (one dispatcher, one computer, one worker) and
  // at the multi-actor matrix shape alike.
  const EdgeList graph = rmat(7, 1200, 9);
  const PageRankProgram program(8);
  EngineOptions eo;
  eo.num_dispatchers = 1;
  eo.num_computers = 1;
  eo.scheduler_workers = 1;
  eo.exec = ExecMode::kSweep;
  const auto sweep = must_run(graph, program, eo);
  eo.exec = ExecMode::kWorklist;
  const auto worklist = must_run(graph, program, eo);
  expect_payloads_equal(worklist, sweep);

  const auto multi_sweep = must_run(
      graph, program,
      matrix_options(ExecMode::kSweep));
  const auto multi_worklist = must_run(
      graph, program,
      matrix_options(ExecMode::kWorklist));
  expect_payloads_equal(multi_worklist, multi_sweep);
}

// --- The activation/halting regression (single-vertex frontier) ------------

TEST(Worklist, LongChainSingleVertexFrontierRunsToCompletion) {
  // One vertex activates per superstep; the vertex whose only message was
  // applied in the same superstep the manager evaluates convergence must
  // count as active in the next one, all the way down the chain. A
  // dropped activation shows up as premature quiescence (INF tail).
  constexpr VertexId kN = 64;
  const EdgeList graph = chain(kN);
  const auto oracle = oracle_bfs_levels(Csr::from_edges(graph), 0);
  for (const ExecMode exec : {ExecMode::kSweep, ExecMode::kWorklist}) {
    EngineOptions eo = matrix_options(exec);
    const auto result = Engine::run(graph, BfsProgram(0), eo);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const RunResult& r = result.value();
    SCOPED_TRACE(exec_mode_name(exec));
    EXPECT_TRUE(r.converged);
    ASSERT_EQ(r.supersteps, kN);
    expect_payloads_equal(r.values, oracle);
    ASSERT_EQ(r.superstep_active_vertices.size(), r.supersteps);
    for (std::uint64_t s = 0; s < r.supersteps; ++s) {
      EXPECT_EQ(r.superstep_active_vertices[s], 1U) << "superstep " << s;
      EXPECT_EQ(r.superstep_messages[s], s + 1 < kN ? 1U : 0U)
          << "superstep " << s;
    }
  }
}

// --- Per-superstep work counters -------------------------------------------

TEST(Worklist, EdgesTouchedShrinkToTheFrontier) {
  const EdgeList graph = chain(64);
  EngineOptions eo = matrix_options(ExecMode::kSweep);
  const auto sweep = Engine::run(graph, BfsProgram(0), eo);
  eo.exec = ExecMode::kWorklist;
  const auto worklist = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_TRUE(sweep.is_ok() && worklist.is_ok());
  const RunResult& s = sweep.value();
  const RunResult& w = worklist.value();
  ASSERT_EQ(s.superstep_edges_touched.size(), s.supersteps);
  ASSERT_EQ(w.superstep_edges_touched.size(), w.supersteps);
  ASSERT_EQ(w.supersteps, s.supersteps);
  // The dispatched frontier is identical...
  EXPECT_EQ(w.superstep_active_vertices, s.superstep_active_vertices);
  EXPECT_EQ(w.superstep_messages, s.superstep_messages);
  // ...but the sweep re-checks all 64 vertices every superstep while the
  // worklist checks one. The CI gate asserts the same >= 2x reduction on
  // the BFS tail (scripts/check_worklist_ratio.py).
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_GE(sum(s.superstep_edges_touched),
            2 * sum(w.superstep_edges_touched));
  for (std::uint64_t step = 0; step < w.supersteps; ++step) {
    EXPECT_LT(w.superstep_edges_touched[step],
              s.superstep_edges_touched[step])
        << "superstep " << step;
  }
}

// --- dispatch_inactive x worklist ------------------------------------------

TEST(Worklist, DispatchInactiveRequiresSweep) {
  const EdgeList graph = chain(8);
  EngineOptions eo;
  eo.dispatch_inactive = true;
  eo.exec = ExecMode::kWorklist;
  const auto rejected = Engine::run(graph, BfsProgram(0), eo);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.status().to_string().find("sweep"), std::string::npos)
      << rejected.status().to_string();

  eo.exec = ExecMode::kSweep;
  const auto accepted = Engine::run(graph, BfsProgram(0), eo);
  EXPECT_TRUE(accepted.is_ok()) << accepted.status().to_string();
}

// --- GPSA_EXEC resolution ---------------------------------------------------

TEST(Worklist, ExecModeResolution) {
  ASSERT_EQ(::unsetenv("GPSA_EXEC"), 0);
  EXPECT_EQ(resolve_exec_mode(std::nullopt), ExecMode::kWorklist);

  ASSERT_EQ(::setenv("GPSA_EXEC", "sweep", 1), 0);
  EXPECT_EQ(resolve_exec_mode(std::nullopt), ExecMode::kSweep);
  // An explicit option always beats the environment.
  EXPECT_EQ(resolve_exec_mode(ExecMode::kWorklist), ExecMode::kWorklist);

  ASSERT_EQ(::setenv("GPSA_EXEC", "worklist", 1), 0);
  EXPECT_EQ(resolve_exec_mode(std::nullopt), ExecMode::kWorklist);

  // Unknown values warn and fall back to the default.
  ASSERT_EQ(::setenv("GPSA_EXEC", "bogus", 1), 0);
  EXPECT_EQ(resolve_exec_mode(std::nullopt), ExecMode::kWorklist);
  ASSERT_EQ(::unsetenv("GPSA_EXEC"), 0);

  EXPECT_FALSE(parse_exec_mode("BOGUS").is_ok());
  EXPECT_EQ(parse_exec_mode("sweep").value(), ExecMode::kSweep);
  EXPECT_EQ(parse_exec_mode("worklist").value(), ExecMode::kWorklist);
}

// --- Delta PageRank ---------------------------------------------------------

TEST(WorklistDelta, PageRankDeltaConvergesToTheFixedPoint) {
  const EdgeList graph = bidirectional_chain(33);
  const Csr csr = Csr::from_edges(graph);
  const PageRankDeltaProgram program(/*max_iterations=*/100, 0.85F,
                                     /*eps=*/1e-7F);
  const auto result = Engine::run(
      graph, program, matrix_options(ExecMode::kWorklist));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const RunResult& r = result.value();
  // Unlike push PageRank the delta program quiesces on its own: residuals
  // decay below the epsilon and the active set empties.
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.supersteps, program.max_supersteps());
  // Long-run push PageRank reaches the same fixed point.
  const auto oracle = oracle_pagerank(csr, /*iterations=*/200, 0.85F);
  expect_float_payloads_near(r.values, oracle, /*rel_tol=*/1e-3);
  // The reference executor runs the same delta protocol.
  const ReferenceResult ref = reference_run(csr, program);
  EXPECT_TRUE(ref.converged);
  expect_float_payloads_near(r.values, ref.values, /*rel_tol=*/1e-3);
}

TEST(WorklistDelta, DeltaIdenticalAcrossExecModes) {
  const EdgeList graph = bidirectional_chain(17);
  const PageRankDeltaProgram program(100, 0.85F, 1e-7F);
  EngineOptions eo;
  eo.num_dispatchers = 1;
  eo.num_computers = 1;
  eo.scheduler_workers = 1;
  eo.exec = ExecMode::kSweep;
  const auto sweep = must_run(graph, program, eo);
  eo.exec = ExecMode::kWorklist;
  const auto worklist = must_run(graph, program, eo);
  expect_payloads_equal(worklist, sweep);
}

TEST(WorklistDelta, DeltaBitIdenticalAcrossSchedules) {
  // Two dispatchers' batches interleave at each computer in schedule
  // order. Every message joins the exact sum and the epsilon gate sees
  // the whole superstep's mass, so every run yields the same vector.
  const EdgeList graph = rmat(9, 6000, 5);
  const PageRankDeltaProgram program(100, 0.85F, 1e-4F);
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 4;
  std::set<std::vector<Payload>> distinct;
  for (int run = 0; run < 20; ++run) {
    distinct.insert(must_run(graph, program, eo));
  }
  EXPECT_EQ(distinct.size(), 1U);
}

TEST(WorklistDelta, EpsilonResolution) {
  ASSERT_EQ(::unsetenv("GPSA_DELTA_EPS"), 0);
  EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-7F);
  EXPECT_FLOAT_EQ(resolve_delta_eps(0.5F), 0.5F);
  ASSERT_EQ(::setenv("GPSA_DELTA_EPS", "1e-3", 1), 0);
  EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-3F);
  EXPECT_FLOAT_EQ(resolve_delta_eps(0.25F), 0.25F);  // option beats env
  ASSERT_EQ(::setenv("GPSA_DELTA_EPS", "not-a-number", 1), 0);
  EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-7F);
  ASSERT_EQ(::unsetenv("GPSA_DELTA_EPS"), 0);

  // A loose epsilon stops earlier and accepts more error — it must still
  // produce a converged, roughly-right answer.
  const EdgeList graph = bidirectional_chain(33);
  const auto tight = Engine::run(graph, PageRankDeltaProgram(100, 0.85F, 1e-7F),
                                 EngineOptions{});
  const auto loose = Engine::run(graph, PageRankDeltaProgram(100, 0.85F, 1e-4F),
                                 EngineOptions{});
  ASSERT_TRUE(tight.is_ok() && loose.is_ok());
  EXPECT_TRUE(loose.value().converged);
  EXPECT_LE(loose.value().supersteps, tight.value().supersteps);
  expect_float_payloads_near(loose.value().values, tight.value().values,
                             /*rel_tol=*/5e-2);
}

TEST(WorklistDelta, ResumeOfDeltaProgramIsRejected) {
  // The last-sent plane is not checkpointed, so resuming a delta program
  // would re-send full values as residuals and double-count rank.
  const EdgeList graph = bidirectional_chain(17);
  const PageRankDeltaProgram program(100, 0.85F, 1e-7F);
  auto dir = ScratchDir::create("delta_resume");
  ASSERT_TRUE(dir.is_ok());
  EngineOptions eo;
  eo.checkpoint_each_superstep = true;
  eo.work_dir = dir.value().path();
  eo.max_supersteps = 2;
  ASSERT_TRUE(Engine::run(graph, program, eo).is_ok());
  eo.max_supersteps = 0;
  const auto resumed = Engine::run_from_csr(dir.value().file("graph.csr"),
                                            program, eo, /*resume=*/true);
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_NE(resumed.status().to_string().find("delta"), std::string::npos)
      << resumed.status().to_string();
}

// --- Crash recovery under worklist mode ------------------------------------

/// Overwrites the crashed superstep's update column with garbage and
/// randomly consumes dispatch flags (same shape as test_recovery.cpp).
void tear_value_file(const std::string& path, std::uint64_t seed) {
  auto file = ValueFile::open(path);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  ValueFile& vf = file.value();
  const std::uint64_t resume = vf.completed_supersteps();
  const unsigned update_col = ValueFile::update_column(resume);
  const unsigned dispatch_col = ValueFile::dispatch_column(resume);
  Rng rng(seed);
  for (VertexId v = 0; v < vf.num_vertices(); ++v) {
    if (rng.next_bool(0.7)) {
      vf.store(v, update_col,
               make_slot(static_cast<Payload>(rng.next_below(kPayloadMask)),
                         rng.next_bool(0.5)));
    }
    if (rng.next_bool(0.4)) {
      vf.consume(v, dispatch_col);
    }
  }
}

TEST(WorklistRecovery, ResumeRebuildsTheBitmapFromRecoveredFlags) {
  // The bitmap dies with the crashed process; on resume the engine must
  // reconstruct the dispatch generation from the recovered stale flags,
  // or the first post-resume superstep dispatches nothing and the run
  // "converges" with an INF tail.
  const EdgeList graph = rmat(8, 2000, 123);
  const BfsProgram program(0);
  auto dir = ScratchDir::create("worklist_crash");
  ASSERT_TRUE(dir.is_ok());

  EngineOptions eo = matrix_options(ExecMode::kWorklist);
  eo.checkpoint_each_superstep = true;
  eo.work_dir = dir.value().path();

  EngineOptions partial = eo;
  partial.max_supersteps = 2;
  ASSERT_TRUE(Engine::run(graph, program, partial).is_ok());
  tear_value_file(dir.value().file("bfs.values"), /*seed=*/77);

  const auto resumed = Engine::run_from_csr(dir.value().file("graph.csr"),
                                            program, eo, /*resume=*/true);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_TRUE(resumed.value().converged);
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(resumed.value().values, ref.values);
}

}  // namespace
}  // namespace gpsa
