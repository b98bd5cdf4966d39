// Readahead scheduling for one dispatcher's interval scan.
//
// Watches the dispatcher's interval cursor and keeps a GPSA_READAHEAD_MB
// window of upcoming bytes resident ahead of it, on both planes:
//
//   CSR entries    will_need on the stream (madvise WILLNEED / pool pread
//                  / uring submit), plus drop-behind on the dispatched
//                  prefix — those entries are never re-read this superstep.
//   value columns  ValueFile::advise_vertex_range(kWillNeed) windows over
//                  the upcoming slot pairs. No drop-behind: the columns are
//                  interleaved per vertex, so pages behind the dispatch
//                  cursor still take update-column writes (DESIGN.md §9).
//
// The cursor check is O(1) per vertex (a trigger-point compare); hints are
// issued every half window, so each byte is requested ahead exactly once.
// Actor-friendly: owned and driven entirely by its dispatcher's thread,
// no locks, no shared state.
#pragma once

#include <cstdint>

#include "graph/partition.hpp"
#include "io/csr_stream.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ReadaheadScheduler {
 public:
  /// Both pointers must outlive the scheduler. A zero readahead window
  /// disables it entirely (advance() becomes a no-op).
  ReadaheadScheduler(const IoConfig& config, CsrEntryStream* csr,
                     ValueFile* values, Interval interval);

  /// Resets cursors to the interval start and primes the first window.
  void begin_superstep();

  /// Dispatcher cursor moved to `entry_cursor` (about to process `vertex`).
  void advance(std::uint64_t entry_cursor, VertexId vertex) {
    if (window_entries_ == 0) {
      return;
    }
    if (entry_cursor >= csr_trigger_) {
      advance_csr(entry_cursor);
    }
    if (vertex >= value_trigger_) {
      advance_values(vertex);
    }
  }

  /// Value-plane hint counters (the CSR plane's live in its stream).
  PrefetchCounters value_counters() const { return value_counters_; }

 private:
  void advance_csr(std::uint64_t entry_cursor);
  void advance_values(VertexId vertex);

  CsrEntryStream* const csr_;
  ValueFile* const values_;
  const Interval interval_;
  const std::uint64_t window_entries_;
  const std::uint64_t window_vertices_;
  const bool drop_behind_;

  std::uint64_t csr_trigger_ = 0;
  std::uint64_t csr_prefetched_ = 0;
  std::uint64_t value_trigger_ = 0;
  std::uint64_t value_prefetched_ = 0;
  PrefetchCounters value_counters_;
};

}  // namespace gpsa
