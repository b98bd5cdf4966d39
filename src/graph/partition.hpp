// Vertex-interval assignment for dispatchers (paper §V.A).
//
// Each dispatcher owns a contiguous vertex-id interval plus the matching
// [start, end) offsets into the on-disk CSR entry array. Cuts are
// edge-balanced, the paper's "assign vertices ... by the average edges to
// ensure that every dispatcher sends exactly the same number of
// messages". The paper's other strategy, equal vertex counts, gave one
// of four dispatchers 57.8% of the edges on a skewed graph (EXPERIMENTS.md
// "Retired benches").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_file.hpp"
#include "graph/types.hpp"

namespace gpsa {

struct Interval {
  VertexId begin_vertex = 0;
  VertexId end_vertex = 0;          // exclusive
  std::uint64_t begin_entry = 0;    // offset into the CSR entry array
  std::uint64_t end_entry = 0;      // exclusive
  EdgeCount edge_count = 0;

  VertexId vertex_count() const { return end_vertex - begin_vertex; }
};

/// Splits [begin, end) — by default [0, |V|) — into at most `parts`
/// non-empty, edge-balanced intervals. Every vertex is covered exactly
/// once; intervals are in ascending id order.
std::vector<Interval> make_intervals(const CsrFileReader& csr, unsigned parts,
                                     VertexId begin = 0,
                                     VertexId end = kNoVertex);

/// Same computation from in-memory degree data (used by tests and baselines).
std::vector<Interval> make_intervals_from_degrees(
    const std::vector<EdgeCount>& out_degrees, unsigned parts);

}  // namespace gpsa
