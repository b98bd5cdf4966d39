// Worklist execution (DESIGN.md §12).
//
// The contract under test: dispatch iterates the active bitmap, and a bit
// set in generation g is exactly a clear stale flag in column g — so
// every app's results equal the single-thread reference executor's, while
// the per-superstep work (vertex checks + streamed entries) is O(active),
// not O(V). The dispatch_inactive ablation seeds every bit and so
// dispatches every vertex every superstep. Plus the delta-programming
// variant (PageRankDeltaProgram): messages carry residuals, re-activation
// is gated on GPSA_DELTA_EPS, and the run quiesces on its own instead of
// exhausting an iteration budget.
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
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

EngineOptions matrix_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 8;  // tiny batches exercise the flush paths
  return eo;
}

/// The shape under which one actor of each kind runs on one worker.
EngineOptions single_actor_options() {
  EngineOptions eo;
  eo.num_dispatchers = 1;
  eo.num_computers = 1;
  eo.scheduler_workers = 1;
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

// --- The active bitmap's range operations ----------------------------------

TEST(Worklist, BitmapSetRangeTouchesOnlyTheRange) {
  // [3, 130) covers a partial first word, one whole word and a partial
  // last word; the bits around it and the other generation stay clear.
  ActiveBitmap bitmap(200);
  bitmap.set(1, 0);
  bitmap.set(150, 0);
  bitmap.set_range(0, 3, 130);
  for (VertexId v = 0; v < 200; ++v) {
    const bool in_range = v >= 3 && v < 130;
    EXPECT_EQ(bitmap.test(v, 0), in_range || v == 1 || v == 150) << v;
    EXPECT_FALSE(bitmap.test(v, 1)) << v;
  }
  bitmap.clear_range(0, 0, 140);
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_EQ(bitmap.test(v, 0), v == 150) << v;
  }
  bitmap.set_range(1, 7, 7);  // empty range: no-op
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_FALSE(bitmap.test(v, 1)) << v;
  }
}

// --- Results equal the reference executor's ---------------------------------

TEST(Worklist, MonotoneAppsMatchReference) {
  const EdgeList graph = rmat(8, 2000, 42);
  const Csr csr = Csr::from_edges(graph);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const SsspProgram sssp(0);
  const MultiSourceReachabilityProgram multi({0, 7, 63});
  const Program* const programs[] = {&bfs, &cc, &sssp, &multi};
  for (const Program* program : programs) {
    const ReferenceResult ref = reference_run(csr, *program);
    const auto worklist = must_run(graph, *program, matrix_options());
    SCOPED_TRACE(program->name());
    expect_payloads_equal(worklist, ref.values);
  }
}

TEST(Worklist, PageRankBitIdenticalUnderDeterministicSchedule) {
  // The exact sum fold makes the result independent of arrival order:
  // bit-identical under a single-actor schedule (one dispatcher, one
  // computer, one worker) and at the multi-actor matrix shape alike.
  const EdgeList graph = rmat(7, 1200, 9);
  const PageRankProgram program(8);
  const auto single = must_run(graph, program, single_actor_options());
  const auto multi = must_run(graph, program, matrix_options());
  expect_payloads_equal(multi, single);
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
  const auto result = Engine::run(graph, BfsProgram(0), matrix_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const RunResult& r = result.value();
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

// --- Per-superstep work counters -------------------------------------------

TEST(Worklist, EdgesTouchedShrinkToTheFrontier) {
  // One full pass over the value column costs num_vertices slot checks a
  // superstep before a single record is streamed. The worklist checks
  // only the frontier (one vertex per superstep on a chain), so each
  // superstep's work — checks plus streamed entries — stays below that.
  constexpr VertexId kN = 64;
  const EdgeList graph = chain(kN);
  const auto result = Engine::run(graph, BfsProgram(0), matrix_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const RunResult& w = result.value();
  ASSERT_EQ(w.superstep_edges_touched.size(), w.supersteps);
  const std::uint64_t full_pass = kN;
  const std::uint64_t touched =
      std::accumulate(w.superstep_edges_touched.begin(),
                      w.superstep_edges_touched.end(), std::uint64_t{0});
  EXPECT_GE(full_pass * w.supersteps, 2 * touched);
  for (std::uint64_t step = 0; step < w.supersteps; ++step) {
    EXPECT_LT(w.superstep_edges_touched[step], full_pass)
        << "superstep " << step;
  }
}

// --- dispatch_inactive: the skip-flag ablation -------------------------------

TEST(Worklist, DispatchInactiveDispatchesEveryVertex) {
  // Seeding every bit makes every vertex dispatch every superstep, so
  // each superstep sends one message per edge; the min folds absorb the
  // replayed values and the results still equal the reference's.
  const EdgeList graph = rmat(8, 2000, 42);
  const Csr csr = Csr::from_edges(graph);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const Program* const programs[] = {&bfs, &cc};
  for (const Program* program : programs) {
    SCOPED_TRACE(program->name());
    EngineOptions eo = matrix_options();
    eo.dispatch_inactive = true;
    const auto result = Engine::run(graph, *program, eo);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const RunResult& r = result.value();
    expect_payloads_equal(r.values, reference_run(csr, *program).values);
    ASSERT_GT(r.supersteps, 0U);
    ASSERT_EQ(r.superstep_messages.size(), r.supersteps);
    ASSERT_EQ(r.superstep_active_vertices.size(), r.supersteps);
    for (std::uint64_t s = 0; s < r.supersteps; ++s) {
      EXPECT_EQ(r.superstep_messages[s], graph.num_edges())
          << "superstep " << s;
      EXPECT_EQ(r.superstep_active_vertices[s], graph.num_vertices())
          << "superstep " << s;
    }
  }
}

TEST(Worklist, ExecModeResolution) {
  EXPECT_EQ(resolve_exec_mode(std::nullopt), ExecMode::kWorklist);
  EXPECT_STREQ(exec_mode_name(resolve_exec_mode(std::nullopt)), "worklist");
}

// --- Delta PageRank ---------------------------------------------------------

TEST(WorklistDelta, PageRankDeltaConvergesToTheFixedPoint) {
  const EdgeList graph = bidirectional_chain(33);
  const Csr csr = Csr::from_edges(graph);
  const PageRankDeltaProgram program(/*max_iterations=*/100, 0.85F,
                                     /*eps=*/1e-7F);
  const auto result = Engine::run(graph, program, matrix_options());
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
  expect_payloads_equal(r.values, ref.values);
}

TEST(WorklistDelta, DeltaBitIdenticalAcrossActorShapes) {
  // The epsilon gate is decided on each vertex's whole exact sum, so the
  // single-actor schedule and the multi-actor shape agree bit for bit.
  const EdgeList graph = bidirectional_chain(17);
  const PageRankDeltaProgram program(100, 0.85F, 1e-7F);
  const auto single = must_run(graph, program, single_actor_options());
  const auto multi = must_run(graph, program, matrix_options());
  expect_payloads_equal(multi, single);
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

// --- Crash recovery: the bitmap is rebuilt on resume -------------------------

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

  EngineOptions eo = matrix_options();
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
