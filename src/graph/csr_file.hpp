// On-disk CSR in the paper's format (§IV.D, Fig. 4) plus the compressed
// v2 format (DESIGN.md §16).
//
// v1: one flat array of 32-bit entries, vertices in id order. Each vertex
// record is:
//
//     [out_degree]  dst0 dst1 ... dstK-1  -1
//
// where the leading out_degree entry is present when the file was written
// `with_degree` (Fig. 4c) — the variant the paper recommends so PageRank's
// genMsg needs no extra degree lookup — and absent otherwise (Fig. 4b).
// A -1 sentinel (kCsrEndOfList) terminates every record, including empty
// ones. The companion "<base>.idx" stores |V|+1 64-bit record-start
// *entry* offsets so dispatch intervals can be assigned without scanning
// (the paper's dispatcher `interval` holds exactly these offsets).
//
// v2: each record is delta-gap varint encoded (graph/csr_v2.hpp) — sorted
// targets, LEB128 gaps, absolute restarts every kCsrV2RestartInterval.
// The same header struct negotiates the two (version field); for v2,
// `num_entries` counts *body bytes* and "<base>.idx" stores per-vertex
// byte offsets, so every index-driven consumer (partition intervals,
// CsrEntryStream chunks, worklist jumps) works in the file's native unit
// without caring which one it is. Renumbered files carry the order kind
// in the flags and a "<base>.perm" new->old sidecar.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/csr_v2.hpp"
#include "graph/types.hpp"
#include "platform/mmap_file.hpp"
#include "util/status.hpp"

namespace gpsa {

struct CsrFileHeader {
  std::uint32_t magic;
  std::uint32_t version;  // CsrFormat: 1 flat entries, 2 varint delta-gap
  std::uint32_t flags;    // bit 0: has_degree; bits 8-9: CsrOrder (v2)
  std::uint32_t num_vertices;
  std::uint64_t num_edges;
  std::uint64_t num_entries;  // v1: int32 entries; v2: body bytes

  static constexpr std::uint32_t kMagic = 0x47435352;  // "GCSR"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint32_t kVersionV2 = 2;
  static constexpr std::uint32_t kFlagHasDegree = 1U << 0;
  static constexpr std::uint32_t kOrderShift = 8;
  static constexpr std::uint32_t kOrderMask = 3U << kOrderShift;
};
static_assert(sizeof(CsrFileHeader) == 32);

/// Streaming record writer for both formats, shared by write_csr_file and
/// the offline converter. Usage: begin(), append_record() per vertex in id
/// order, finish(). v1 emission is byte-for-byte the historical layout;
/// v2 sorts nothing itself — callers pass ascending targets (CHECKed).
class CsrFileWriter {
 public:
  CsrFileWriter(std::string base_path, CsrFormat format, bool with_degree,
                CsrOrder order = CsrOrder::kNone);

  /// Opens the entry file and writes the header (v1: final; v2: a
  /// placeholder rewritten by finish(), body size unknown up front).
  Status begin(VertexId num_vertices, EdgeCount num_edges);

  /// Appends one vertex record. v2 requires ascending targets.
  Status append_record(std::span<const VertexId> targets);

  /// Flushes, rewrites the v2 header, writes "<base>.idx" and — when the
  /// order is not kNone — "<base>.perm" from `new_to_old`.
  Status finish(std::span<const VertexId> new_to_old = {});

 private:
  Status flush_buffer();

  const std::string base_path_;
  const CsrFormat format_;
  const bool with_degree_;
  const CsrOrder order_;
  CsrFileHeader header_{};
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint64_t> offsets_;
  std::uint64_t unit_cursor_ = 0;  // v1: entries; v2: body bytes
  VertexId records_written_ = 0;
  int flush_count_ = 0;
  // std::ofstream kept behind a pimpl-free trick: the stream object lives
  // in the cpp via this opaque holder to keep <fstream> out of the header.
  struct Stream;
  std::shared_ptr<Stream> out_;
};

/// Serializes an in-memory CSR into "<base>" + "<base>.idx" (v1 layout —
/// the historical entry point, byte-for-byte unchanged).
Status write_csr_file(const Csr& csr, const std::string& base_path,
                      bool with_degree);

/// Format/order-aware serialization. `csr` is in *original* ids; when
/// `order` != kNone the graph is renumbered (new ids assigned by the
/// order's permutation, targets relabeled and sorted) and "<base>.perm"
/// records new->old. order != kNone requires v2 — a v1 file has no flag
/// bits to carry it, and v1 files must stay byte-identical — so the
/// combination is rejected up front.
Status write_csr_file(const Csr& csr, const std::string& base_path,
                      bool with_degree, CsrFormat format, CsrOrder order);

/// Convenience: canonical preprocessing pipeline (paper §V.B) — sorts the
/// edge list into adjacency order and writes the CSR file pair.
Status preprocess_edges_to_csr(const EdgeList& edges,
                               const std::string& base_path, bool with_degree);
Status preprocess_edges_to_csr(const EdgeList& edges,
                               const std::string& base_path, bool with_degree,
                               CsrFormat format, CsrOrder order);

/// Offline converter (gpsa_cli convert): reads any supported format,
/// translates back to original ids through the input's permutation, and
/// rewrites with the requested format/order.
Status convert_csr_file(const std::string& in_base,
                        const std::string& out_base, CsrFormat format,
                        CsrOrder order, bool with_degree);

/// Test-only crash injection for write_csr_file (the fork-based crash
/// suite): after `flushes` successful entry-buffer flushes the process
/// _exit()s, leaving a torn entry file and no index. Negative disables
/// (the default). Only ever set inside a forked child.
void set_csr_write_crash_after_flushes(int flushes);

/// Test-only: _exit() after the entry file is complete but before the
/// .idx file is (re)written — the torn state where a stale index from a
/// previous build can point into a fresh entry file.
void set_csr_write_crash_before_index(bool crash);

/// Memory-mapped reader over the file pair. The mapping is advised
/// MADV_SEQUENTIAL: dispatchers stream records in id order. open()
/// negotiates the format from the header and fully validates the record
/// structure (both formats), so the accessors below are infallible.
class CsrFileReader {
 public:
  static Result<CsrFileReader> open(const std::string& base_path);

  VertexId num_vertices() const { return header_.num_vertices; }
  EdgeCount num_edges() const { return header_.num_edges; }
  bool has_degree() const {
    return (header_.flags & CsrFileHeader::kFlagHasDegree) != 0;
  }
  CsrFormat format() const {
    return header_.version == CsrFileHeader::kVersionV2 ? CsrFormat::kV2
                                                        : CsrFormat::kV1;
  }
  /// Renumbering the file was written with (always kNone for v1).
  CsrOrder order() const {
    return static_cast<CsrOrder>((header_.flags & CsrFileHeader::kOrderMask) >>
                                 CsrFileHeader::kOrderShift);
  }
  /// new->old id map loaded from "<base>.perm"; empty when order()==kNone
  /// (identity). Engines translate Program-boundary ids and invert this on
  /// output so results stay keyed by original ids.
  std::span<const VertexId> permutation() const { return permutation_; }

  /// The raw entry array (degrees, destinations, -1 sentinels). v1 only;
  /// empty for v2 (whose raw body is bytes — see body()).
  std::span<const std::int32_t> entries() const { return entries_; }

  /// The raw encoded record body (v2 only; empty for v1).
  std::span<const std::uint8_t> body() const { return body_; }

  /// Size of one addressing unit in the entry file: 4 (int32 entries) for
  /// v1, 1 (bytes) for v2. record_offsets(), Interval::begin/end_entry,
  /// and the dispatcher's streamed-entry counters are all in this unit.
  unsigned unit_bytes() const {
    return format() == CsrFormat::kV2 ? 1U : sizeof(std::int32_t);
  }
  /// Total addressing units in the body (== record_offsets().back()).
  std::uint64_t num_units() const { return header_.num_entries; }

  /// Upper bound on one decoded record's entry count (degree + degree
  /// slot + sentinel) — sizes the streaming decode scratch so the
  /// dispatch path never allocates.
  std::size_t max_record_entries() const { return max_record_entries_; }

  /// Record-start offsets (in unit_bytes() units); |V|+1 values, the last
  /// equals num_units().
  std::span<const std::uint64_t> record_offsets() const { return offsets_; }

  struct VertexRecord {
    VertexId vertex;
    std::uint32_t out_degree;
    std::span<const std::int32_t> targets;  // excludes the -1 sentinel
  };

  /// Decodes the record of vertex v (random access; tests and baselines).
  /// For v2 the targets view aliases an internal scratch buffer: valid
  /// until the next record() call, and not thread-safe. Dispatchers never
  /// come through here — they stream via CsrEntryStream.
  VertexRecord record(VertexId v) const;

  /// Out-degree of v without materializing the record (v2: decodes only
  /// the leading varint). The partitioner's per-vertex pass uses this.
  std::uint32_t out_degree(VertexId v) const;

  /// Total bytes of the entry file (reported in the Table I bench, which
  /// reproduces the paper's CSR-compression observation for twitter-2010).
  std::uint64_t entry_file_bytes() const { return entry_map_.size(); }

  /// Path of the entry file (the .idx path is this + ".idx"). I/O backends
  /// open their record streams against it.
  const std::string& entry_path() const { return entry_map_.path(); }

 private:
  CsrFileHeader header_{};
  MmapFile entry_map_;
  MmapFile index_map_;
  std::span<const std::int32_t> entries_;
  std::span<const std::uint8_t> body_;
  std::span<const std::uint64_t> offsets_;
  std::vector<VertexId> permutation_;
  std::size_t max_record_entries_ = 2;
  /// v2 record() decode target (see the record() contract above).
  mutable std::vector<std::int32_t> record_scratch_;
};

}  // namespace gpsa
