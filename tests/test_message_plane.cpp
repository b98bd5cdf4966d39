// Message-plane tests (DESIGN.md §11): the batch-buffer pool, the
// vertex->computer ownership map, and the cache-ordered apply path.
//
// Coverage:
//   - MessageBatchPool unit contract: lease/recycle reuse, the
//     steady_misses counter, recycled-byte and free-buffer tracking.
//   - OwnerMap unit contract: range owner/local-index/local-size
//     arithmetic, interval-derived boundaries, the routing name.
//   - Combined sums: a peer's exact partials fold to the same sums,
//     activation and updates as the messages they combine, and overflow
//     the same way.
//   - Engine runs: monotone apps match the reference executor with small
//     batches; PageRank with one dispatcher is bit-identical run to run
//     (the radix staging is stable, so the per-vertex fold order is the
//     dispatch order whatever the schedule).
//   - RunResult surfacing: pool stats (no buffer dropped at any worker
//     count), the routing, per-computer busy seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/degree_count.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/message_pool.hpp"
#include "core/ownership.hpp"
#include "core/slice_apply.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_payloads_equal;

// --- MessageBatchPool --------------------------------------------------------

TEST(MessagePool, LeaseRecycleReusesCapacity) {
  MessageBatchPool pool(64);
  auto first = pool.lease();
  EXPECT_TRUE(first.empty());
  EXPECT_GE(first.capacity(), 64u);
  first.push_back(VertexMessage{});
  pool.recycle(std::move(first));

  auto second = pool.lease();
  EXPECT_TRUE(second.empty());  // recycle() must clear
  EXPECT_GE(second.capacity(), 64u);

  const MessagePoolStats stats = pool.stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.leases, 2u);
  EXPECT_EQ(stats.misses, 1u);  // only the first lease allocated
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.steady_misses, 0u);
}

TEST(MessagePool, SteadyMissesCountOnlyAfterWarmup) {
  MessageBatchPool pool(16);
  // The first two supersteps' misses are not counted as steady.
  auto a = pool.lease();
  auto b = pool.lease();
  pool.mark_superstep();
  pool.recycle(std::move(a));
  pool.mark_superstep();
  EXPECT_EQ(pool.stats().steady_misses, 0u);

  // After them: a hit stays clean, a fresh allocation counts.
  auto hit = pool.lease();  // served from the recycled buffer
  EXPECT_EQ(pool.stats().steady_misses, 0u);
  auto miss = pool.lease();  // free list empty -> allocates
  const MessagePoolStats stats = pool.stats();
  EXPECT_EQ(stats.steady_misses, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  pool.recycle(std::move(b));
  pool.recycle(std::move(hit));
  pool.recycle(std::move(miss));
}

TEST(MessagePool, RecycledBytesTrackCapacity) {
  MessageBatchPool pool(128);
  auto buffer = pool.lease();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(buffer.capacity()) * sizeof(VertexMessage);
  EXPECT_EQ(pool.stats().free_buffers, 0u);
  pool.recycle(std::move(buffer));
  EXPECT_EQ(pool.stats().recycled_bytes, expected);
  EXPECT_EQ(pool.stats().free_buffers, 1u);
}

// --- OwnerMap ----------------------------------------------------------------

TEST(OwnerMap, RangeOwnsContiguousSlices) {
  const OwnerMap map = OwnerMap::make_range({0, 4, 7, 10});
  EXPECT_EQ(map.parts(), 3u);
  EXPECT_EQ(map.num_vertices(), 10u);
  for (VertexId v = 0; v < 10; ++v) {
    const unsigned owner = v < 4 ? 0 : (v < 7 ? 1 : 2);
    EXPECT_EQ(map.owner_of(v), owner) << "vertex " << v;
    EXPECT_EQ(map.local_index(v, owner), v - map.range_begin(owner))
        << "vertex " << v;
  }
  EXPECT_EQ(map.local_size(0), 4u);
  EXPECT_EQ(map.local_size(1), 3u);
  EXPECT_EQ(map.local_size(2), 3u);
  EXPECT_EQ(map.range_begin(1), 4u);
  EXPECT_EQ(map.range_end(1), 7u);
}

TEST(OwnerMap, RangeFromIntervalsUsesIntervalBoundaries) {
  std::vector<Interval> intervals(2);
  intervals[0].begin_vertex = 0;
  intervals[0].end_vertex = 5;
  intervals[1].begin_vertex = 5;
  intervals[1].end_vertex = 9;
  const OwnerMap map = OwnerMap::make_range_from_intervals(intervals);
  EXPECT_EQ(map.parts(), 2u);
  EXPECT_EQ(map.num_vertices(), 9u);
  EXPECT_EQ(map.owner_of(4), 0u);
  EXPECT_EQ(map.owner_of(5), 1u);
  EXPECT_EQ(map.local_index(8, 1), 3u);
}

TEST(OwnerMap, RoutingNameIsRange) {
  EXPECT_STREQ(message_routing_name(MessageRouting::kRange), "range");
}

// --- Combined partials (a cluster rank's PARTIALS path, DESIGN.md §14) ------

/// One slice's apply state over a value file of its own, stored at
/// v - kBegin as on a cluster rank; superstep 0 dispatches column 0 and
/// updates column 1.
struct SliceUnderTest {
  static constexpr VertexId kBegin = 1000;
  static constexpr VertexId kSize = 300;

  SliceUnderTest(const std::string& path, const Program& program)
      : values(std::move(ValueFile::create(path, kSize, program.name()))
                   .value()),
        latest(kSize, 0),
        worklist(kSize),
        apply(values, program, latest, worklist, nullptr, kBegin, kBegin,
              kSize) {
    for (VertexId i = 0; i < kSize; ++i) {
      const Payload stored = float_to_payload(0.001F * static_cast<float>(i));
      values.store(i, 0, make_slot(stored, /*stale=*/false));
      values.store(i, 1, make_slot(stored, /*stale=*/true));
    }
  }

  ValueFile values;
  std::vector<std::uint8_t> latest;
  ActiveBitmap worklist;
  SliceApply apply;
};

TEST(CombinedSums, SenderPartialsFoldLikeTheirMessages) {
  // The same messages, folded one by one or combined by "senders" split
  // at random points into partials that arrive in pieces in any order,
  // must leave identical sums, activation and update counts. The delta
  // program's epsilon gate makes activation depend on the exact sum.
  auto dir = ScratchDir::create("combined_sums");
  ASSERT_TRUE(dir.is_ok());
  // About 25 messages of mean 3e-5 reach each touched vertex: an epsilon
  // near their mean mass activates about half of them.
  const PageRankDeltaProgram program(10, 0.85F, /*eps=*/6.5e-4F);
  SliceUnderTest one_by_one(dir.value().file("a.values"), program);
  SliceUnderTest combined(dir.value().file("b.values"), program);

  Rng rng(7);
  std::vector<VertexMessage> messages;
  for (int k = 0; k < 5000; ++k) {
    // The slice's last third receives nothing; every tenth term is below
    // 2^-32, where the conversion truncates.
    const auto dst = static_cast<VertexId>(
        SliceUnderTest::kBegin + rng.next_below(SliceUnderTest::kSize * 2 / 3));
    const float value = static_cast<float>(rng.next_double()) *
                        (k % 10 == 0 ? 1e-10F : 6e-5F);
    messages.emplace_back(dst, float_to_payload(value));
  }

  for (std::size_t at = 0; at < messages.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next_below(600),
                                                messages.size() - at);
    one_by_one.apply.apply(
        std::vector<VertexMessage>(messages.begin() + at,
                                   messages.begin() + at + n),
        0);
    at += n;
  }

  std::vector<std::vector<Partial>> pieces;
  for (std::size_t at = 0; at < messages.size();) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next_below(1500),
                                                messages.size() - at);
    std::map<VertexId, FixedSum> sums;  // one sender's, ascending
    for (std::size_t k = at; k < at + n; ++k) {
      sums[messages[k].dst] =
          fixed_add(sums[messages[k].dst], payload_to_fixed(messages[k].value));
    }
    at += n;
    std::vector<Partial> partials;
    for (const auto& [dst, sum] : sums) {
      partials.push_back(Partial{dst, sum});
      if (rng.next_below(40) == 0) {
        pieces.push_back(std::move(partials));
        partials.clear();
      }
    }
    pieces.push_back(std::move(partials));
  }
  std::shuffle(pieces.begin(), pieces.end(), rng);
  for (const std::vector<Partial>& piece : pieces) {
    combined.apply.apply_partials(piece, 0);
  }

  const std::uint64_t updates = one_by_one.apply.finish(0);
  EXPECT_EQ(combined.apply.finish(0), updates);
  EXPECT_GT(updates, 0U);
  EXPECT_LT(updates, SliceUnderTest::kSize * 2 / 3);  // the gate held some
  for (VertexId i = 0; i < SliceUnderTest::kSize; ++i) {
    EXPECT_EQ(combined.values.load(i, 1), one_by_one.values.load(i, 1)) << i;
    EXPECT_EQ(combined.latest[i], one_by_one.latest[i]) << i;
    EXPECT_EQ(combined.worklist.test(i, 1), one_by_one.worklist.test(i, 1))
        << i;
  }
}

TEST(CombinedPartials, ComputeFoldPartialsApplyLikeTheirMessages) {
  // A non-sum program's partial is its messages' compute fold, applied as
  // one message: values, latest columns, activation and update counts
  // equal those of the messages applied one by one (min, OR, and a count
  // whose first_update resets).
  auto dir = ScratchDir::create("combined_partials");
  ASSERT_TRUE(dir.is_ok());
  const BfsProgram bfs(0);
  const MultiSourceReachabilityProgram multibfs({0, 1, 2});
  const InDegreeProgram indegree;
  const Program* const programs[] = {&bfs, &multibfs, &indegree};
  for (const Program* program : programs) {
    SCOPED_TRACE(program->name());
    SliceUnderTest one_by_one(dir.value().file("a_" + program->name()),
                              *program);
    SliceUnderTest combined(dir.value().file("b_" + program->name()),
                            *program);
    Rng rng(11);
    std::vector<VertexMessage> messages;
    for (int k = 0; k < 3000; ++k) {
      const auto dst = static_cast<VertexId>(
          SliceUnderTest::kBegin +
          rng.next_below(SliceUnderTest::kSize * 2 / 3));
      const auto value =
          program == &indegree
              ? Payload{1}
              : static_cast<Payload>(rng.next_below(kPayloadMask));
      messages.emplace_back(dst, value);
    }
    one_by_one.apply.apply(messages, 0);
    // Three "senders", each folding its share per destination.
    std::vector<Partial> partials;
    for (std::size_t sender = 0; sender < 3; ++sender) {
      std::map<VertexId, Payload> folds;  // ascending
      for (std::size_t k = sender; k < messages.size(); k += 3) {
        const VertexMessage& m = messages[k];
        const auto it = folds.find(m.dst);
        if (it == folds.end()) {
          folds.emplace(m.dst, m.value);
        } else {
          it->second = program->compute(it->second, m.value);
        }
      }
      for (const auto& [dst, value] : folds) {
        partials.push_back(Partial{dst, value});
      }
    }
    combined.apply.apply_partials(partials, 0);
    EXPECT_EQ(combined.apply.finish(0), one_by_one.apply.finish(0));
    for (VertexId i = 0; i < SliceUnderTest::kSize; ++i) {
      EXPECT_EQ(combined.values.load(i, 1), one_by_one.values.load(i, 1))
          << i;
      EXPECT_EQ(combined.latest[i], one_by_one.latest[i]) << i;
      EXPECT_EQ(combined.worklist.test(i, 1), one_by_one.worklist.test(i, 1))
          << i;
    }
  }
}

TEST(CombinedPartials, NonPayloadPartialThrows) {
  // A non-sum partial above kPayloadMask is a corrupt peer's, never
  // truncated into a payload.
  auto dir = ScratchDir::create("combined_partials_range");
  ASSERT_TRUE(dir.is_ok());
  const BfsProgram program(0);
  SliceUnderTest slice(dir.value().file("a.values"), program);
  const std::vector<Partial> partials = {
      {SliceUnderTest::kBegin, std::uint64_t{kPayloadMask} + 1}};
  EXPECT_THROW(slice.apply.apply_partials(partials, 0), std::out_of_range);
}

TEST(CombinedSums, OutOfRangeTermOrSumThrowsOnBothPaths) {
  auto seed = [] { return Payload{0}; };
  const Payload huge = float_to_payload(128.0F);  // a term >= 2^7
  const Payload big = float_to_payload(100.0F);   // two make a sum >= 2^7

  SliceSumFold one_by_one;
  one_by_one.init(0, 4);
  EXPECT_THROW(one_by_one.add(1, huge, seed), std::overflow_error);
  one_by_one.add(2, big, seed);
  EXPECT_THROW(one_by_one.add(2, big, seed), std::overflow_error);

  // A sender converts and sums the same terms, and throws the same way.
  EXPECT_THROW((void)payload_to_fixed(huge), std::overflow_error);
  EXPECT_THROW((void)fixed_add(payload_to_fixed(big), payload_to_fixed(big)),
               std::overflow_error);
  // Two senders' in-range partials overflow where the receiver adds them.
  SliceSumFold combined;
  combined.init(0, 4);
  combined.add_partial(2, payload_to_fixed(big), seed);
  EXPECT_THROW(combined.add_partial(2, payload_to_fixed(big), seed),
               std::overflow_error);
}

// --- Engine runs --------------------------------------------------------------

EngineOptions plane_options(unsigned dispatchers = 2, unsigned computers = 3) {
  EngineOptions eo;
  eo.num_dispatchers = dispatchers;
  eo.num_computers = computers;
  eo.message_batch = 256;  // small batches: plenty of lease/recycle traffic
  return eo;
}

class MessagePlaneEquality : public ::testing::Test {
 protected:
  static EdgeList test_graph() {
    return generate_paper_graph(PaperGraph::kGoogle, 0.05, 11);
  }
};

TEST_F(MessagePlaneEquality, MonotoneAppsMatchReference) {
  // BFS/CC/SSSP fold with min, so arrival order cannot matter: the
  // small-batch plane must reproduce the sequential reference exactly.
  const EdgeList graph = test_graph();
  const Csr csr = Csr::from_edges(graph);
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const SsspProgram sssp(0);
  for (const Program* program :
       std::initializer_list<const Program*>{&bfs, &cc, &sssp}) {
    SCOPED_TRACE(program->name());
    const auto result = Engine::run(graph, *program, plane_options());
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().routing, MessageRouting::kRange);
    expect_payloads_equal(result.value().values,
                          reference_run(csr, *program).values);
  }
}

TEST_F(MessagePlaneEquality, PageRankBitIdenticalWhereFoldOrderIsFixed) {
  // With a single dispatcher the per-vertex fold order is the dispatch
  // scan order — the radix scatter is a stable counting sort — so two
  // runs must be bit-identical however the computers are scheduled.
  const EdgeList graph = test_graph();
  const PageRankProgram program(4);
  const auto first =
      Engine::run(graph, program, plane_options(/*dispatchers=*/1));
  const auto second =
      Engine::run(graph, program, plane_options(/*dispatchers=*/1));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().total_messages, first.value().total_messages);
  expect_payloads_equal(second.value().values, first.value().values);
}

// --- RunResult surfacing ------------------------------------------------------

TEST_F(MessagePlaneEquality, PooledRunDropsNoBuffer) {
  // What the pool guarantees: every buffer it allocated is back on the
  // free list at job end, at any worker count. (steady_misses is not
  // asserted: with several workers the peak number of batches in flight
  // can still rise after superstep 2 under another schedule, and each new
  // peak allocates once.)
  const EdgeList graph = test_graph();
  const PageRankProgram program(6);
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    EngineOptions eo = plane_options();
    eo.scheduler_workers = workers;
    const auto result = Engine::run(graph, program, eo);
    ASSERT_TRUE(result.is_ok());
    const MessagePoolStats& pool = result.value().pool;
    EXPECT_TRUE(pool.enabled);
    EXPECT_GT(pool.leases, 0u);
    EXPECT_GT(pool.hits, 0u);
    EXPECT_GT(pool.recycled_bytes, 0u);
    EXPECT_EQ(pool.hits + pool.misses, pool.leases);
    EXPECT_EQ(pool.free_buffers, pool.misses);

    // The compute-side busy clock is populated per spawned computer.
    ASSERT_FALSE(result.value().computer_busy_seconds.empty());
    for (const double busy : result.value().computer_busy_seconds) {
      EXPECT_GE(busy, 0.0);
      EXPECT_LE(busy, result.value().elapsed_seconds);
    }
  }
}

TEST(MessagePlaneEdge, MoreComputersThanVerticesShrinksToNonEmptySlices) {
  // Six vertices, eight requested computers: range routing spawns one
  // computer per non-empty interval slice and must still be correct.
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  const EngineOptions one =
      plane_options(/*dispatchers=*/1, /*computers=*/1);
  const EngineOptions many =
      plane_options(/*dispatchers=*/2, /*computers=*/8);
  const auto a = Engine::run(graph, program, one);
  const auto b = Engine::run(graph, program, many);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_LE(b.value().computer_busy_seconds.size(), 6u);
  expect_payloads_equal(b.value().values, a.value().values);
}

}  // namespace
}  // namespace gpsa
