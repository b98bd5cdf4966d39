// Unit tests for the vertex programs and the sequential reference
// executor, validated against independent classic-algorithm oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "apps/weights.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

// --- Program hook semantics --------------------------------------------------

TEST(BfsProgram, Hooks) {
  const BfsProgram bfs(3);
  EXPECT_EQ(bfs.init(3, 10).value, 0U);
  EXPECT_TRUE(bfs.init(3, 10).active);
  EXPECT_EQ(bfs.init(0, 10).value, kPayloadInfinity);
  EXPECT_FALSE(bfs.init(0, 10).active);
  EXPECT_EQ(bfs.gen_msg(0, 1, 4, 7), 5U);
  EXPECT_EQ(bfs.gen_msg(0, 1, kPayloadInfinity, 1), kPayloadInfinity);
  EXPECT_EQ(bfs.compute(3, 9), 3U);
  EXPECT_TRUE(bfs.changed(5, 4));
  EXPECT_FALSE(bfs.changed(4, 4));
  EXPECT_FALSE(bfs.changed(4, 5));
}

TEST(CcProgram, Hooks) {
  const ConnectedComponentsProgram cc;
  EXPECT_EQ(cc.init(7, 10).value, 7U);
  EXPECT_TRUE(cc.init(7, 10).active);
  EXPECT_EQ(cc.gen_msg(7, 2, 3, 4), 3U);
  EXPECT_EQ(cc.compute(5, 2), 2U);
  EXPECT_EQ(cc.first_update(1, 9), 9U);
}

TEST(PageRankProgram, Hooks) {
  const PageRankProgram pr(5);
  const auto init = pr.init(0, 4);
  EXPECT_TRUE(init.active);
  EXPECT_FLOAT_EQ(payload_to_float(init.value), 0.25F);
  // gen_msg divides by out-degree and applies damping.
  const Payload msg = pr.gen_msg(0, 1, float_to_payload(0.4F), 2);
  EXPECT_FLOAT_EQ(payload_to_float(msg), 0.85F * 0.4F / 2.0F);
  // first_update seeds with the teleport term (set by init for N=4).
  EXPECT_FLOAT_EQ(payload_to_float(pr.first_update(0, 0)), 0.15F / 4.0F);
  EXPECT_TRUE(pr.changed(1, 1));
  EXPECT_EQ(pr.max_supersteps(), 5U);
  EXPECT_TRUE(pr.sum_fold());
  EXPECT_FALSE(BfsProgram(0).sum_fold());
}

// --- Exact sum fold (program.hpp) --------------------------------------------

TEST(SumFold, TermsAtOrAbove2ToMinus32RoundTripExactly) {
  for (const float value : {1.0F, 0.15F / 16384.0F, 0x1p-32F,
                            0x1.fffffep-32F, 127.99999F}) {
    const Payload p = float_to_payload(value);
    EXPECT_EQ(fixed_to_payload(payload_to_fixed(p)), p) << value;
  }
  EXPECT_EQ(payload_to_fixed(float_to_payload(1.0F)), FixedSum{1} << 56);
  EXPECT_EQ(payload_to_fixed(float_to_payload(0x1p-57F)), 0U);
}

TEST(SumFold, SumIsIndependentOfOrderAndCorrectlyRounded) {
  // 1 + 2^-24 + 2^-30 is just above the midpoint between 1 and 1 + 2^-23:
  // the correctly rounded float is 1 + 2^-23, while a float fold in this
  // order loses both small terms and returns 1.
  const std::vector<float> terms = {1.0F, 0x1p-24F, 0x1p-30F, 0.3F, 1e-9F};
  std::vector<std::size_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<FixedSum> sums;
  do {
    FixedSum sum = 0;
    for (const std::size_t i : order) {
      sum = fixed_add(sum, payload_to_fixed(float_to_payload(terms[i])));
    }
    sums.push_back(sum);
  } while (std::next_permutation(order.begin(), order.end()));
  for (const FixedSum sum : sums) {
    EXPECT_EQ(sum, sums.front());
  }
  const double exact = 1.0 + 0x1p-24 + 0x1p-30 + static_cast<double>(0.3F) +
                       static_cast<double>(1e-9F);
  EXPECT_EQ(fixed_to_payload(sums.front()),
            float_to_payload(static_cast<float>(exact)));
  FixedSum head = payload_to_fixed(float_to_payload(1.0F));
  head = fixed_add(head, payload_to_fixed(float_to_payload(0x1p-24F)));
  head = fixed_add(head, payload_to_fixed(float_to_payload(0x1p-30F)));
  EXPECT_EQ(fixed_to_payload(head), float_to_payload(1.0F + 0x1p-23F));
}

TEST(SumFold, OutOfRangeTermOrSumThrows) {
  EXPECT_THROW((void)payload_to_fixed(float_to_payload(128.0F)),
               std::overflow_error);
  EXPECT_THROW((void)payload_to_fixed(
                   float_to_payload(std::numeric_limits<float>::infinity())),
               std::overflow_error);
  const FixedSum big = payload_to_fixed(float_to_payload(100.0F));
  EXPECT_THROW((void)fixed_add(big, big), std::overflow_error);
}

TEST(SsspProgram, HooksAndWeights) {
  const SsspProgram sssp(0);
  const std::uint32_t w = synthetic_edge_weight(3, 4);
  EXPECT_GE(w, 1U);
  EXPECT_LE(w, 16U);
  EXPECT_EQ(synthetic_edge_weight(3, 4), w);  // deterministic
  EXPECT_EQ(sssp.gen_msg(3, 4, 10, 1), 10 + w);
  EXPECT_EQ(sssp.gen_msg(3, 4, kPayloadInfinity - 2, 1), kPayloadInfinity);
}

// --- Reference executor vs oracles ------------------------------------------

TEST(Reference, BfsMatchesOracleOnFamilies) {
  for (const EdgeList& g :
       {diamond_graph(), chain(32), grid(6, 7), binary_tree(31),
        rmat(9, 4000, 3)}) {
    const Csr csr = Csr::from_edges(g);
    const ReferenceResult ref = reference_run(csr, BfsProgram(0));
    expect_payloads_equal(ref.values, oracle_bfs_levels(csr, 0));
    EXPECT_TRUE(ref.converged);
  }
}

TEST(Reference, BfsFromNonzeroRoot) {
  const Csr csr = Csr::from_edges(grid(5, 5));
  const ReferenceResult ref = reference_run(csr, BfsProgram(12));
  expect_payloads_equal(ref.values, oracle_bfs_levels(csr, 12));
}

TEST(Reference, CcMatchesOracle) {
  for (const EdgeList& g :
       {star(16), grid(4, 9), rmat(8, 1200, 11), erdos_renyi(200, 300, 2)}) {
    const Csr csr = Csr::from_edges(g);
    const ReferenceResult ref =
        reference_run(csr, ConnectedComponentsProgram());
    expect_payloads_equal(ref.values, oracle_min_label(csr));
    EXPECT_TRUE(ref.converged);
  }
}

TEST(Reference, SsspMatchesDijkstra) {
  for (const EdgeList& g :
       {diamond_graph(), grid(8, 8), rmat(9, 5000, 17)}) {
    const Csr csr = Csr::from_edges(g);
    const ReferenceResult ref = reference_run(csr, SsspProgram(0));
    expect_payloads_equal(ref.values, oracle_sssp(csr, 0));
  }
}

TEST(Reference, PageRankMatchesDoubleOracle) {
  const EdgeList g = rmat(9, 6000, 23);
  const Csr csr = Csr::from_edges(g);
  const ReferenceResult ref = reference_run(csr, PageRankProgram(10));
  expect_float_payloads_near(ref.values, oracle_pagerank(csr, 10), 1e-3);
}

TEST(Reference, PageRankMassApproachesOne) {
  // With few dangling vertices, total rank stays near 1.
  EdgeList g = complete(50);
  const Csr csr = Csr::from_edges(g);
  const ReferenceResult ref = reference_run(csr, PageRankProgram(15));
  double total = 0;
  for (Payload p : ref.values) {
    total += payload_to_float(p);
  }
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(Reference, BudgetStopsEarly) {
  const Csr csr = Csr::from_edges(chain(100));
  const ReferenceResult ref = reference_run(csr, BfsProgram(0), 10);
  EXPECT_EQ(ref.supersteps, 10U);
  EXPECT_FALSE(ref.converged);
  EXPECT_EQ(ref.values[10], 10U);
  EXPECT_EQ(ref.values[11], kPayloadInfinity);
}

TEST(Reference, MessageCountsMatchActiveDegrees) {
  // Superstep 0 of PageRank sends exactly |E| non-dangling messages.
  const EdgeList g = rmat(8, 2000, 29);
  const Csr csr = Csr::from_edges(g);
  const ReferenceResult ref = reference_run(csr, PageRankProgram(1));
  EXPECT_EQ(ref.superstep_messages[0], g.num_edges());
}

TEST(Reference, IsolatedVerticesUntouched) {
  EdgeList g = chain(4);
  g.ensure_vertices(8);  // vertices 4..7 isolated
  const Csr csr = Csr::from_edges(g);
  const ReferenceResult bfs = reference_run(csr, BfsProgram(0));
  for (VertexId v = 4; v < 8; ++v) {
    EXPECT_EQ(bfs.values[v], kPayloadInfinity);
  }
  const ReferenceResult cc =
      reference_run(csr, ConnectedComponentsProgram());
  for (VertexId v = 4; v < 8; ++v) {
    EXPECT_EQ(cc.values[v], v);  // own label: never reached
  }
}

TEST(Weights, DistributionCoversRange) {
  std::vector<int> seen(17, 0);
  for (VertexId u = 0; u < 100; ++u) {
    for (VertexId v = 0; v < 20; ++v) {
      ++seen[synthetic_edge_weight(u, v)];
    }
  }
  for (int w = 1; w <= 16; ++w) {
    EXPECT_GT(seen[w], 0) << "weight " << w << " never generated";
  }
}

}  // namespace
}  // namespace gpsa
