// Unit tests for the graph substrate: edge-list IO, CSR construction and
// transpose, the paper's on-disk CSR format (Fig. 4 variants), generators,
// and interval partitioning.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>

#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;

// --- EdgeList ----------------------------------------------------------------

TEST(EdgeList, TracksVertexBound) {
  EdgeList g;
  g.add_edge(3, 9);
  EXPECT_EQ(g.num_vertices(), 10U);
  g.ensure_vertices(4);  // never lowers
  EXPECT_EQ(g.num_vertices(), 10U);
  g.ensure_vertices(20);
  EXPECT_EQ(g.num_vertices(), 20U);
}

TEST(EdgeList, CanonicalizeSortsDedupsAndDropsLoops) {
  EdgeList g;
  g.add_edge(2, 1);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 1);
  g.canonicalize();
  ASSERT_EQ(g.num_edges(), 2U);
  EXPECT_EQ(g.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(g.edges()[1], (Edge{2, 1}));
}

TEST(EdgeList, TextRoundTripWithComments) {
  auto dir = ScratchDir::create("el");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("g.txt");
  const EdgeList g = diamond_graph();
  ASSERT_TRUE(g.write_text(path).is_ok());
  const auto back = EdgeList::read_text(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().num_edges(), g.num_edges());
  EXPECT_EQ(back.value().edges(), g.edges());
}

TEST(EdgeList, TextParserRejectsGarbage) {
  auto dir = ScratchDir::create("elbad");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("bad.txt");
  ASSERT_TRUE(write_file(path, "1 two\n", 6).is_ok());
  const auto r = EdgeList::read_text(path);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
}

TEST(EdgeList, BinaryRoundTrip) {
  auto dir = ScratchDir::create("elbin");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("g.bin");
  const EdgeList g = rmat(7, 500, 3);
  ASSERT_TRUE(g.write_binary(path).is_ok());
  const auto back = EdgeList::read_binary(path);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().num_vertices(), g.num_vertices());
  EXPECT_EQ(back.value().edges(), g.edges());
}

TEST(EdgeList, BinaryRejectsBadMagic) {
  auto dir = ScratchDir::create("elmag");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("junk.bin");
  const char junk[32] = {1, 2, 3};
  ASSERT_TRUE(write_file(path, junk, sizeof(junk)).is_ok());
  EXPECT_FALSE(EdgeList::read_binary(path).is_ok());
}

TEST(EdgeList, TextParserRejectsOutOfRangeIds) {
  // 0xffffffff would wrap add_edge's num_vertices computation to 0, and
  // anything >= 2^31 - 1 is unrepresentable in the int32 CSR entry format
  // (fuzz_edge_list regression).
  auto dir = ScratchDir::create("elrange");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("range.txt");
  for (const char* body : {"4294967295 1\n", "1 4294967295\n",
                           "2147483647 1\n", "0 2147483647\n"}) {
    ASSERT_TRUE(write_file(path, body, std::strlen(body)).is_ok());
    const auto r = EdgeList::read_text(path);
    EXPECT_FALSE(r.is_ok()) << body;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData) << body;
  }
  // The largest representable id still parses.
  const char* max_ok = "2147483646 0\n";
  ASSERT_TRUE(write_file(path, max_ok, std::strlen(max_ok)).is_ok());
  const auto ok = EdgeList::read_text(path);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().num_vertices(), 2147483647U);
}

TEST(EdgeList, BinaryRejectsLyingHeader) {
  auto dir = ScratchDir::create("ellie");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("g.bin");
  EdgeList g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ASSERT_TRUE(g.write_binary(path).is_ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.is_ok());

  // Inflate the edge count: without the file-size check this drives a
  // huge resize before any read fails (fuzz_edge_list regression).
  auto inflated = bytes.value();
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(inflated.data() + 8, &huge, sizeof(huge));
  ASSERT_TRUE(write_file(path, inflated.data(), inflated.size()).is_ok());
  auto r = EdgeList::read_binary(path);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);

  // Shrink the vertex count below the edge endpoints: accepted, this
  // builds CSRs whose adjacency targets exceed num_vertices.
  auto shrunk = bytes.value();
  const std::uint32_t zero_vertices = 0;
  std::memcpy(shrunk.data() + 4, &zero_vertices, sizeof(zero_vertices));
  ASSERT_TRUE(write_file(path, shrunk.data(), shrunk.size()).is_ok());
  r = EdgeList::read_binary(path);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
}

// --- Csr ---------------------------------------------------------------------

TEST(Csr, BuildsAdjacency) {
  const Csr csr = Csr::from_edges(diamond_graph());
  EXPECT_EQ(csr.num_vertices(), 6U);
  EXPECT_EQ(csr.num_edges(), 5U);
  EXPECT_EQ(csr.out_degree(0), 2U);
  EXPECT_EQ(csr.out_degree(5), 0U);
  const auto n0 = csr.neighbors(0);
  ASSERT_EQ(n0.size(), 2U);
  EXPECT_EQ(n0[0], 1U);
  EXPECT_EQ(n0[1], 2U);
}

TEST(Csr, TransposeReversesEdges) {
  const Csr csr = Csr::from_edges(diamond_graph());
  const Csr t = csr.transpose();
  EXPECT_EQ(t.num_edges(), csr.num_edges());
  EXPECT_EQ(t.out_degree(3), 2U);  // in-edges of 3: from 1 and 2
  EXPECT_EQ(t.out_degree(0), 0U);
  // Double transpose is the identity on the edge multiset.
  const Csr tt = t.transpose();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    std::vector<VertexId> a(csr.neighbors(v).begin(), csr.neighbors(v).end());
    std::vector<VertexId> b(tt.neighbors(v).begin(), tt.neighbors(v).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "vertex " << v;
  }
}

// --- CsrFile (paper Fig. 4) --------------------------------------------------

class CsrFileTest : public ::testing::TestWithParam<bool> {};

TEST_P(CsrFileTest, RoundTripPreservesRecords) {
  const bool with_degree = GetParam();
  auto dir = ScratchDir::create("csrf");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("g.csr");
  const EdgeList g = rmat(8, 2000, 17);
  const Csr csr = Csr::from_edges(g);
  ASSERT_TRUE(write_csr_file(csr, base, with_degree).is_ok());
  const auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  const CsrFileReader& r = reader.value();
  EXPECT_EQ(r.num_vertices(), csr.num_vertices());
  EXPECT_EQ(r.num_edges(), csr.num_edges());
  EXPECT_EQ(r.has_degree(), with_degree);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto record = r.record(v);
    ASSERT_EQ(record.out_degree, csr.out_degree(v)) << "vertex " << v;
    const auto expected = csr.neighbors(v);
    ASSERT_EQ(record.targets.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(static_cast<VertexId>(record.targets[i]), expected[i]);
    }
  }
}

TEST_P(CsrFileTest, SentinelsTerminateEveryRecord) {
  const bool with_degree = GetParam();
  auto dir = ScratchDir::create("csrs");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("g.csr");
  const Csr csr = Csr::from_edges(diamond_graph());
  ASSERT_TRUE(write_csr_file(csr, base, with_degree).is_ok());
  const auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok());
  const auto offsets = reader.value().record_offsets();
  const auto entries = reader.value().entries();
  ASSERT_EQ(offsets.size(), csr.num_vertices() + 1U);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_EQ(entries[offsets[v + 1] - 1], kCsrEndOfList) << "vertex " << v;
  }
  EXPECT_EQ(offsets.back(), entries.size());
}

INSTANTIATE_TEST_SUITE_P(DegreeVariants, CsrFileTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "WithDegree" : "NoDegree";
                         });

TEST(CsrFile, OpenRejectsCorruptHeader) {
  auto dir = ScratchDir::create("csrbad");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("bad.csr");
  std::vector<char> junk(64, 0x5A);
  ASSERT_TRUE(write_file(base, junk.data(), junk.size()).is_ok());
  ASSERT_TRUE(write_file(base + ".idx", junk.data(), 8).is_ok());
  const auto r = CsrFileReader::open(base);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
}

TEST(CsrFile, EmptyVertexRecordsAreWellFormed) {
  // star(4): vertex 0 -> {1,2,3} and back; add an isolated vertex 4.
  EdgeList g = star(4);
  g.ensure_vertices(5);
  auto dir = ScratchDir::create("csriso");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("g.csr");
  ASSERT_TRUE(write_csr_file(Csr::from_edges(g), base, true).is_ok());
  const auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok());
  const auto record = reader.value().record(4);
  EXPECT_EQ(record.out_degree, 0U);
  EXPECT_TRUE(record.targets.empty());
}

// --- Generators --------------------------------------------------------------

TEST(Generators, ChainGridStarCounts) {
  EXPECT_EQ(chain(10).num_edges(), 9U);
  EXPECT_EQ(grid(3, 4).num_edges(), 3U * 3 + 2 * 4);  // rights + downs
  EXPECT_EQ(star(5).num_edges(), 8U);
  EXPECT_EQ(complete(4).num_edges(), 12U);
  EXPECT_EQ(binary_tree(7).num_edges(), 6U);
}

TEST(Generators, ErdosRenyiRespectsBounds) {
  const EdgeList g = erdos_renyi(100, 500, 1);
  EXPECT_EQ(g.num_vertices(), 100U);
  EXPECT_EQ(g.num_edges(), 500U);
  for (const Edge& e : g.edges()) {
    ASSERT_LT(e.src, 100U);
    ASSERT_LT(e.dst, 100U);
    ASSERT_NE(e.src, e.dst);
  }
}

TEST(Generators, RmatDeterministicPerSeed) {
  const EdgeList a = rmat(8, 1000, 5);
  const EdgeList b = rmat(8, 1000, 5);
  const EdgeList c = rmat(8, 1000, 6);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, RmatIsSkewed) {
  // Power-law-ish: the top 1% of vertices by out-degree should own a
  // disproportionate share of edges (far above the uniform 1%).
  const EdgeList g = rmat(12, 40'000, 9);
  const Csr csr = Csr::from_edges(g);
  std::vector<EdgeCount> degrees;
  degrees.reserve(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    degrees.push_back(csr.out_degree(v));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  const std::size_t top = degrees.size() / 100;
  const EdgeCount top_sum =
      std::accumulate(degrees.begin(), degrees.begin() + top, EdgeCount{0});
  EXPECT_GT(static_cast<double>(top_sum) / static_cast<double>(g.num_edges()),
            0.05);
}

TEST(Generators, PaperDatasetSpecsMatchTableOne) {
  const DatasetSpec google = paper_dataset_spec(PaperGraph::kGoogle);
  EXPECT_EQ(google.paper_vertices, 875'713U);
  EXPECT_EQ(google.paper_edges, 5'105'039U);
  const DatasetSpec twitter = paper_dataset_spec(PaperGraph::kTwitter2010);
  EXPECT_EQ(twitter.paper_vertices, 41'652'230U);
  EXPECT_EQ(twitter.paper_edges, 1'468'365'182U);
  EXPECT_EQ(all_paper_graphs().size(), 4U);
}

TEST(Generators, PaperStandInScales) {
  const EdgeList small = generate_paper_graph(PaperGraph::kGoogle, 0.05, 1);
  const DatasetSpec spec = paper_dataset_spec(PaperGraph::kGoogle);
  EXPECT_NEAR(static_cast<double>(small.num_edges()),
              0.05 * static_cast<double>(spec.stand_in_edges),
              0.01 * static_cast<double>(spec.stand_in_edges));
}

// --- Partitioning ------------------------------------------------------------

TEST(Partition, CoversAllVertices) {
  const std::vector<EdgeCount> degrees(100, 3);
  const auto intervals = make_intervals_from_degrees(degrees, 7);
  ASSERT_FALSE(intervals.empty());
  VertexId expected_begin = 0;
  for (const Interval& iv : intervals) {
    EXPECT_EQ(iv.begin_vertex, expected_begin);
    expected_begin = iv.end_vertex;
  }
  EXPECT_EQ(expected_begin, 100U);
}

TEST(Partition, BalancedEdgesEqualizesSkew) {
  // Vertex 0 has 1000 edges, the rest have 1 each: balanced-edge cuts must
  // isolate the hub.
  std::vector<EdgeCount> degrees(101, 1);
  degrees[0] = 1000;
  const auto intervals = make_intervals_from_degrees(degrees, 4);
  EXPECT_EQ(intervals.front().vertex_count(), 1U);  // hub alone
  VertexId covered = 0;
  EdgeCount edges = 0;
  for (const Interval& iv : intervals) {
    EXPECT_EQ(iv.begin_vertex, covered);
    covered = iv.end_vertex;
    edges += iv.edge_count;
  }
  EXPECT_EQ(covered, 101U);
  EXPECT_EQ(edges, 1100U);
}

TEST(Partition, BalancedEdgesStarGraphLeavesNoDispatcherIdle) {
  // Regression: with fixed prefix targets (total * p / parts) a star hub
  // overshoots several cumulative cuts at once, collapsing them onto the
  // same vertex — empty intervals, idle dispatchers. Remaining-edge
  // rebalancing must yield exactly `parts` non-empty intervals whenever
  // parts <= |V|.
  const EdgeList g = star(64);
  const Csr csr = Csr::from_edges(g);
  std::vector<EdgeCount> degrees(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    degrees[v] = csr.out_degree(v);
  }
  for (const unsigned parts : {2U, 3U, 4U, 8U, 16U, 64U}) {
    const auto intervals = make_intervals_from_degrees(degrees, parts);
    ASSERT_EQ(intervals.size(), parts) << "parts=" << parts;
    VertexId covered = 0;
    EdgeCount edges = 0;
    for (const Interval& iv : intervals) {
      EXPECT_EQ(iv.begin_vertex, covered) << "parts=" << parts;
      EXPECT_GT(iv.vertex_count(), 0U) << "parts=" << parts;
      covered = iv.end_vertex;
      edges += iv.edge_count;
    }
    EXPECT_EQ(covered, csr.num_vertices()) << "parts=" << parts;
    EXPECT_EQ(edges, csr.num_edges()) << "parts=" << parts;
  }
}

TEST(Partition, BalancedEdgesSkewedRmatHasNoEmptyIntervals) {
  // Same invariant on a power-law degree distribution (the shape the
  // dispatchers actually see) across a sweep of part counts.
  const EdgeList g = rmat(9, 8'000, 41);
  const Csr csr = Csr::from_edges(g);
  std::vector<EdgeCount> degrees(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    degrees[v] = csr.out_degree(v);
  }
  for (unsigned parts = 1; parts <= 32; ++parts) {
    const auto intervals = make_intervals_from_degrees(degrees, parts);
    ASSERT_EQ(intervals.size(), parts) << "parts=" << parts;
    for (const Interval& iv : intervals) {
      EXPECT_GT(iv.vertex_count(), 0U) << "parts=" << parts;
    }
  }
}

TEST(Partition, MoreBucketsThanVerticesShrinks) {
  const std::vector<EdgeCount> degrees(3, 2);
  const auto intervals = make_intervals_from_degrees(degrees, 10);
  EXPECT_LE(intervals.size(), 3U);
  VertexId covered = 0;
  for (const Interval& iv : intervals) {
    covered += iv.vertex_count();
  }
  EXPECT_EQ(covered, 3U);
}

TEST(Partition, IntervalEntryOffsetsMatchCsrFile) {
  auto dir = ScratchDir::create("part");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("g.csr");
  const EdgeList g = rmat(8, 1500, 23);
  ASSERT_TRUE(write_csr_file(Csr::from_edges(g), base, true).is_ok());
  const auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok());
  const auto intervals = make_intervals(reader.value(), 4);
  const auto offsets = reader.value().record_offsets();
  for (const Interval& iv : intervals) {
    EXPECT_EQ(iv.begin_entry, offsets[iv.begin_vertex]);
    EXPECT_EQ(iv.end_entry, offsets[iv.end_vertex]);
  }
}

}  // namespace
}  // namespace gpsa
