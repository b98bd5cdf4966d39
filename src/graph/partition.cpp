#include "graph/partition.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gpsa {
namespace {

/// Cuts [0, n) after computing per-part vertex boundaries, then fills in
/// entry offsets. `boundary(i)` returns the first vertex of part i.
template <typename BoundaryFn>
std::vector<Interval> build(const std::vector<EdgeCount>& degrees,
                            unsigned parts, BoundaryFn boundary) {
  const VertexId n = static_cast<VertexId>(degrees.size());
  std::vector<Interval> out;
  out.reserve(parts);
  for (unsigned p = 0; p < parts; ++p) {
    const VertexId begin = boundary(p);
    const VertexId end = boundary(p + 1);
    if (begin >= end) {
      continue;  // fewer parts than requested on tiny graphs
    }
    Interval iv;
    iv.begin_vertex = begin;
    iv.end_vertex = end;
    for (VertexId v = begin; v < end; ++v) {
      iv.edge_count += degrees[v];
    }
    out.push_back(iv);
  }
  GPSA_CHECK(!out.empty() || n == 0);
  return out;
}

}  // namespace

std::vector<Interval> make_intervals_from_degrees(
    const std::vector<EdgeCount>& out_degrees, unsigned parts) {
  GPSA_CHECK(parts >= 1);
  const VertexId n = static_cast<VertexId>(out_degrees.size());
  if (n == 0) {
    return {};
  }

  // Greedy prefix cut. Each part's target is recomputed from the edges
  // and parts *remaining*, so a huge-degree vertex that overshoots its
  // cut rebalances over the rest instead of starving later parts: with
  // fixed prefix targets total*p/parts, one hub vertex can exceed several
  // cumulative targets at once, collapsing those cuts onto the same
  // vertex and leaving their dispatchers with empty intervals.
  EdgeCount remaining = 0;
  for (EdgeCount d : out_degrees) {
    remaining += d;
  }
  std::vector<VertexId> cuts(parts + 1, n);
  cuts[0] = 0;
  VertexId v = 0;
  for (unsigned p = 1; p < parts; ++p) {
    const unsigned parts_left = parts - p + 1;
    const EdgeCount target = remaining / parts_left;  // ideal for part p-1
    // Keep at least one vertex available for each later part.
    const VertexId later_parts = static_cast<VertexId>(parts - p);
    const VertexId max_end = n > later_parts ? n - later_parts : v;
    EdgeCount part_edges = 0;
    while (v < max_end && part_edges < target) {
      part_edges += out_degrees[v];
      ++v;
    }
    if (v == cuts[p - 1] && v < max_end) {
      // Zero target (edge-starved tail): still take one vertex so every
      // part is non-empty whenever parts <= |V|.
      part_edges += out_degrees[v];
      ++v;
    }
    cuts[p] = v;
    remaining -= part_edges;
  }
  return build(out_degrees, parts, [&cuts](unsigned p) { return cuts[p]; });
}

std::vector<Interval> make_intervals(const CsrFileReader& csr, unsigned parts,
                                     VertexId begin, VertexId end) {
  end = std::min(end, csr.num_vertices());
  const VertexId n = end - begin;
  const auto offsets = csr.record_offsets().subspan(begin);
  const bool v2 = csr.format() == CsrFormat::kV2;
  // Balance weights: out-degrees for v1, where every edge costs the same
  // 4-byte entry, but *encoded record bytes* for v2 — varint compression
  // decouples byte skew from degree skew (a hub of near-consecutive
  // targets is cheap, a scattered one expensive), and a dispatcher's
  // streaming cost is proportional to the bytes it scans, not the edges.
  std::vector<EdgeCount> weights(n);
  for (VertexId v = 0; v < n; ++v) {
    weights[v] = v2 ? offsets[v + 1] - offsets[v] : csr.out_degree(begin + v);
  }
  auto intervals = make_intervals_from_degrees(weights, parts);
  for (Interval& iv : intervals) {
    iv.begin_entry = offsets[iv.begin_vertex];
    iv.end_entry = offsets[iv.end_vertex];
    iv.begin_vertex += begin;
    iv.end_vertex += begin;
    if (v2) {
      // build() summed byte weights into edge_count; restore true edges
      // (progress accounting and the stats line report edge counts).
      iv.edge_count = 0;
      for (VertexId v = iv.begin_vertex; v < iv.end_vertex; ++v) {
        iv.edge_count += csr.out_degree(v);
      }
    }
  }
  return intervals;
}

}  // namespace gpsa
