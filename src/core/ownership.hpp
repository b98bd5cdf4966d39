// Vertex -> computing-actor ownership map (message routing).
//
// The paper routes a message to "the computing actor that owns the
// destination" without fixing the map. A modulo map would interleave
// owners at single-vertex stride, so every computer would write every
// cache line of the value file and of latest_column at once. Range
// ownership instead derives contiguous per-computer vertex slices from
// the same Interval machinery the dispatchers partition with (§V.A):
// each computer owns one contiguous run of both, and batches
// radix-staged in ascending destination order (dispatcher.cpp) apply as
// near-sequential writes within the slice. The cluster engine uses the
// same map for its per-node store placement.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gpsa {

/// The routing a run used (RunResult::routing). Range is the only map.
enum class MessageRouting : std::uint8_t { kRange };

const char* message_routing_name(MessageRouting routing);

class OwnerMap {
 public:
  /// Contiguous ranges split at `boundaries` = [0, b1, ..., num_vertices]
  /// (ascending, parts = boundaries.size() - 1, all >= 1 required).
  static OwnerMap make_range(std::vector<VertexId> boundaries);

  /// Ranges taken from interval partitions (make_intervals /
  /// make_intervals_from_degrees). The intervals cover [0, n) in order,
  /// so parts() == intervals.size() — possibly fewer than requested on
  /// tiny graphs, and the engine spawns exactly parts() computers.
  static OwnerMap make_range_from_intervals(
      const std::vector<Interval>& intervals);

  unsigned parts() const { return parts_; }
  VertexId num_vertices() const { return num_vertices_; }

  unsigned owner_of(VertexId v) const {
    // Dispatchers call this once per generated message with skewed,
    // data-dependent destinations; a binary search here mispredicts its
    // way through the hot loop. The block table answers in one load for
    // any block that no boundary crosses, and the walk below advances at
    // most once per boundary inside v's block.
    unsigned owner = block_table_[v >> block_shift_];
    while (boundaries_[owner + 1] <= v) {
      ++owner;
    }
    return owner;
  }

  /// Dense position of v inside `owner`'s local slot range. Ascending in
  /// v within an owner, so the radix bins built over it stage batches in
  /// ascending-dst order.
  VertexId local_index(VertexId v, unsigned owner) const {
    return v - boundaries_[owner];
  }

  /// Size of `owner`'s dense local range (== max local_index + 1).
  VertexId local_size(unsigned owner) const {
    return boundaries_[owner + 1] - boundaries_[owner];
  }

  /// The contiguous [begin, end) slice of `owner`.
  VertexId range_begin(unsigned owner) const { return boundaries_[owner]; }
  VertexId range_end(unsigned owner) const { return boundaries_[owner + 1]; }

 private:
  explicit OwnerMap(std::vector<VertexId> boundaries);

  VertexId num_vertices_ = 0;
  unsigned parts_ = 1;
  /// parts_ + 1 ascending entries, [0] == 0, back() == n.
  std::vector<VertexId> boundaries_;
  /// block_table_[v >> block_shift_] is the owner of the block's first
  /// vertex (at most ~4Ki entries; one L1/L2 line hit per owner_of).
  std::vector<unsigned> block_table_;
  unsigned block_shift_ = 0;
};

}  // namespace gpsa
