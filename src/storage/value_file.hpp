// The memory-mapped vertex value file (paper §IV.D/F).
//
// Layout: a fixed header, then |V| pairs of adjacent 32-bit slots —
// "the two copies of the value are next to each other. The offset of the
// value for vertex V can be calculated with |V| * sizeof(Val)":
//
//   [header][v0.colA v0.colB][v1.colA v1.colB]...
//
// Column roles alternate each superstep (Fig. 5):
//   superstep s:  dispatch column = s % 2   (read by dispatchers, whose
//                                            only writes are flag bits)
//                 update   column = (s+1)%2 (written by computing actors)
// so the column written in superstep s is the one dispatched in s+1.
//
// Concurrency: dispatchers own disjoint vertex intervals; computing actors
// own disjoint vertex sets (dst mod worker-count). The one cross-role
// overlap — a computing actor reading the dispatch-column payload while
// the owning dispatcher sets its flag bit — is made race-free by doing all
// slot access through std::atomic_ref with relaxed ordering (the mailbox
// handoff provides the necessary happens-before for payloads).
//
// The header records `completed_supersteps`, bumped and msync'd by the
// engine's checkpoint after each superstep; recovery (recovery.hpp) uses
// it to locate the immutable column (§IV.G).
#pragma once

#include <cstdint>
#include <string>

#include "graph/types.hpp"
#include "platform/mmap_file.hpp"
#include "storage/slot.hpp"
#include "util/status.hpp"

namespace gpsa {

struct ValueFileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t num_vertices;
  std::uint32_t reserved0;
  std::uint64_t completed_supersteps;
  char app_tag[24];  // NUL-padded; sanity check between runs

  static constexpr std::uint32_t kMagic = 0x4750'5641;  // "GPVA"
  static constexpr std::uint32_t kVersion = 1;
};
static_assert(sizeof(ValueFileHeader) == 48);

class ValueFile {
 public:
  static constexpr unsigned kColumns = 2;

  /// Creates the file with all slots zero (callers must initialize via the
  /// program's init function before superstep 0).
  static Result<ValueFile> create(const std::string& path,
                                  VertexId num_vertices,
                                  const std::string& app_tag);

  /// Opens an existing file read-write (recovery, inspection, resume).
  static Result<ValueFile> open(const std::string& path);

  VertexId num_vertices() const { return header().num_vertices; }
  const std::string& path() const { return map_.path(); }
  std::string app_tag() const;

  static unsigned dispatch_column(std::uint64_t superstep) {
    return static_cast<unsigned>(superstep % 2);
  }
  static unsigned update_column(std::uint64_t superstep) {
    return static_cast<unsigned>((superstep + 1) % 2);
  }

  /// Relaxed-atomic slot accessors (see concurrency note above); the
  /// atomic_ref construction itself is centralized in storage/slot.hpp.
  Slot load(VertexId v, unsigned column) const {
    return slot_load_relaxed(slot_at(v, column));
  }
  void store(VertexId v, unsigned column, Slot value) {
    slot_store_relaxed(slot_at(v, column), value);
  }

  /// Sets the stale bit of (v, column), returning the previous slot.
  /// Used by dispatchers to consume a vertex (Algorithm 2 line 20).
  Slot consume(VertexId v, unsigned column) {
    return slot_consume_relaxed(slot_at(v, column));
  }

  std::uint64_t completed_supersteps() const {
    return header().completed_supersteps;
  }

  /// Checkpoint: flushes slot data, then bumps the completed counter and
  /// flushes the header (write ordering makes the counter trustworthy).
  Status checkpoint(std::uint64_t completed_supersteps);

  Status sync() {
    ++flush_syscalls_;
    return map_.sync();
  }

  /// msync calls issued against this file (sync/checkpoint).
  /// The write-back-batching bench reports this so GPSA_CHECKPOINT_INTERVAL
  /// has a measurable effect (DESIGN.md §16: O_DIRECT feasibility note).
  std::uint64_t flush_syscalls() const { return flush_syscalls_; }

  /// Residency hint over the slot pairs of vertices [begin, end) — the
  /// readahead scheduler keeps upcoming column pages resident with
  /// kWillNeed windows ahead of each dispatcher's cursor. Hints always
  /// cover whole pairs (the columns are interleaved per vertex), which is
  /// also why drop-behind is never issued here: pages behind the dispatch
  /// cursor still receive update-column writes (DESIGN.md §9).
  Status advise_vertex_range(VertexId begin, VertexId end,
                             MmapFile::Advice advice);

  /// Byte size of the whole file for `num_vertices` vertices.
  static std::size_t file_size(VertexId num_vertices);

 private:
  ValueFileHeader& header() {
    return *reinterpret_cast<ValueFileHeader*>(map_.data());
  }
  const ValueFileHeader& header() const {
    return *reinterpret_cast<const ValueFileHeader*>(map_.data());
  }

  Slot& slot_at(VertexId v, unsigned column) const {
    GPSA_DCHECK(v < header().num_vertices && column < kColumns);
    Slot* slots = reinterpret_cast<Slot*>(
        const_cast<std::byte*>(map_.data()) + sizeof(ValueFileHeader));
    return slots[static_cast<std::size_t>(v) * kColumns + column];
  }

  MmapFile map_;
  std::uint64_t flush_syscalls_ = 0;
};

}  // namespace gpsa
