#include "core/ownership.hpp"

#include "util/check.hpp"

namespace gpsa {

const char* message_routing_name(MessageRouting routing) {
  switch (routing) {
    case MessageRouting::kRange:
      return "range";
  }
  return "unknown";
}

OwnerMap::OwnerMap(std::vector<VertexId> boundaries)
    : num_vertices_(boundaries.back()),
      parts_(static_cast<unsigned>(boundaries.size() - 1)),
      boundaries_(std::move(boundaries)) {
  // Block granularity: at most ~4Ki blocks so the table stays resident in
  // L1/L2 next to the dispatch loop's working set.
  constexpr unsigned kMaxBlocks = 4096;
  while ((static_cast<std::uint64_t>(num_vertices_) >> block_shift_) >=
         kMaxBlocks) {
    ++block_shift_;
  }
  const std::size_t blocks =
      static_cast<std::size_t>(num_vertices_ >> block_shift_) + 1;
  block_table_.resize(blocks);
  unsigned owner = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const VertexId start = static_cast<VertexId>(b) << block_shift_;
    while (owner + 1 < parts_ && boundaries_[owner + 1] <= start) {
      ++owner;
    }
    block_table_[b] = owner;
  }
}

OwnerMap OwnerMap::make_range(std::vector<VertexId> boundaries) {
  GPSA_CHECK(boundaries.size() >= 2);
  GPSA_CHECK(boundaries.front() == 0);
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    GPSA_CHECK(boundaries[i] >= boundaries[i - 1]);
  }
  return OwnerMap(std::move(boundaries));
}

OwnerMap OwnerMap::make_range_from_intervals(
    const std::vector<Interval>& intervals) {
  GPSA_CHECK(!intervals.empty());
  std::vector<VertexId> boundaries;
  boundaries.reserve(intervals.size() + 1);
  for (const Interval& interval : intervals) {
    boundaries.push_back(interval.begin_vertex);
  }
  boundaries.push_back(intervals.back().end_vertex);
  return make_range(std::move(boundaries));
}

}  // namespace gpsa
