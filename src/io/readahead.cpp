#include "io/readahead.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gpsa {

ReadaheadScheduler::ReadaheadScheduler(const IoConfig& config,
                                       CsrEntryStream* csr, ValueFile* values,
                                       Interval interval)
    : csr_(csr),
      values_(values),
      interval_(interval),
      // The window budget is in *bytes*; the stream's unit converts it.
      // For v2 files one unit is one compressed byte, so the same byte
      // budget covers ~2-4x the edges — compression widens the effective
      // lookahead for free.
      window_entries_(config.readahead_bytes / csr->unit_bytes()),
      // A vertex costs one interleaved slot pair on the value plane.
      window_vertices_(config.readahead_bytes /
                       (ValueFile::kColumns * sizeof(Slot))),
      drop_behind_(config.drop_behind) {
  GPSA_CHECK(csr_ != nullptr && values_ != nullptr);
}

void ReadaheadScheduler::begin_superstep() {
  if (window_entries_ == 0) {
    return;
  }
  csr_trigger_ = csr_prefetched_ = interval_.begin_entry;
  value_trigger_ = value_prefetched_ = interval_.begin_vertex;
  advance(interval_.begin_entry, interval_.begin_vertex);
}

void ReadaheadScheduler::advance_csr(std::uint64_t entry_cursor) {
  const std::uint64_t target =
      std::min(entry_cursor + window_entries_, interval_.end_entry);
  if (target > csr_prefetched_) {
    csr_->will_need_entries(csr_prefetched_, target - csr_prefetched_);
    csr_prefetched_ = target;
  }
  if (drop_behind_ && entry_cursor > interval_.begin_entry) {
    csr_->drop_behind_entries(entry_cursor);
  }
  csr_trigger_ = entry_cursor + window_entries_ / 2;
}

void ReadaheadScheduler::advance_values(VertexId vertex) {
  const std::uint64_t target = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(vertex) + window_vertices_,
      interval_.end_vertex);
  if (target > value_prefetched_) {
    if (values_
            ->advise_vertex_range(static_cast<VertexId>(value_prefetched_),
                                  static_cast<VertexId>(target),
                                  MmapFile::Advice::kWillNeed)
            .is_ok()) {
      value_counters_.bytes_prefetched +=
          (target - value_prefetched_) * ValueFile::kColumns * sizeof(Slot);
    }
    value_prefetched_ = target;
  }
  value_trigger_ = static_cast<std::uint64_t>(vertex) + window_vertices_ / 2;
}

}  // namespace gpsa
