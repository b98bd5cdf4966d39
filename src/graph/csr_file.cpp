#include "graph/csr_file.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

namespace gpsa {

namespace {
// Crash-injection state for the fork-based crash tests. Plain globals:
// they are only ever set inside a freshly forked, single-threaded child.
int g_crash_after_flushes = -1;
bool g_crash_before_index = false;

// Flush cadence of the entry-file byte buffer. 1<<18 bytes is the
// historical 1<<16 int32-entry threshold, so v1 emission (and the crash
// tests counting flushes) keeps the exact flush boundaries it always had.
constexpr std::size_t kWriterFlushBytes = std::size_t{1} << 18;
}  // namespace

void set_csr_write_crash_after_flushes(int flushes) {
  g_crash_after_flushes = flushes;
}

void set_csr_write_crash_before_index(bool crash) {
  g_crash_before_index = crash;
}

struct CsrFileWriter::Stream {
  std::ofstream out;
};

CsrFileWriter::CsrFileWriter(std::string base_path, CsrFormat format,
                             bool with_degree, CsrOrder order)
    : base_path_(std::move(base_path)),
      format_(format),
      // The degree varint is structural in v2 — the record has no sentinel,
      // so the decoder needs it to find the record end.
      with_degree_(format == CsrFormat::kV2 ? true : with_degree),
      order_(order) {}

Status CsrFileWriter::begin(VertexId num_vertices, EdgeCount num_edges) {
  GPSA_CHECK(out_ == nullptr);
  if (format_ == CsrFormat::kV1 && order_ != CsrOrder::kNone) {
    return invalid_argument(
        "v1 csr files cannot carry a vertex order (flags are reserved); "
        "use format v2 for ordered files");
  }
  if (format_ == CsrFormat::kV2 &&
      num_vertices >
          static_cast<VertexId>(std::numeric_limits<std::int32_t>::max())) {
    return invalid_argument(
        "v2 csr requires num_vertices <= 2^31-1 (decoded targets are "
        "positive int32 entries)");
  }
  header_.magic = CsrFileHeader::kMagic;
  header_.version = format_ == CsrFormat::kV2 ? CsrFileHeader::kVersionV2
                                              : CsrFileHeader::kVersion;
  header_.flags = (with_degree_ ? CsrFileHeader::kFlagHasDegree : 0) |
                  (static_cast<std::uint32_t>(order_)
                   << CsrFileHeader::kOrderShift);
  header_.num_vertices = num_vertices;
  header_.num_edges = num_edges;
  // v1 totals are known up front, so the header written here is final and
  // the emitted file is byte-for-byte the historical layout. v2 body bytes
  // are only known after encoding: placeholder, rewritten by finish().
  header_.num_entries =
      format_ == CsrFormat::kV1
          ? num_edges + std::uint64_t{num_vertices} * (with_degree_ ? 2 : 1)
          : 0;

  out_ = std::make_shared<Stream>();
  out_->out.open(base_path_, std::ios::binary | std::ios::trunc);
  if (!out_->out) {
    return io_error("write_csr_file: cannot open " + base_path_);
  }
  out_->out.write(reinterpret_cast<const char*>(&header_), sizeof(header_));
  if (!out_->out) {
    return io_error("write_csr_file: short write to " + base_path_);
  }
  offsets_.reserve(static_cast<std::size_t>(num_vertices) + 1);
  buffer_.reserve(kWriterFlushBytes);
  return Status::ok();
}

Status CsrFileWriter::flush_buffer() {
  out_->out.write(reinterpret_cast<const char*>(buffer_.data()),
                  static_cast<std::streamsize>(buffer_.size()));
  if (!out_->out) {
    return io_error("write_csr_file: short write to " + base_path_);
  }
  buffer_.clear();
  if (g_crash_after_flushes >= 0 && flush_count_++ == g_crash_after_flushes) {
    out_->out.flush();  // make the torn prefix durable, then die mid-write
    ::_exit(0);
  }
  return Status::ok();
}

Status CsrFileWriter::append_record(std::span<const VertexId> targets) {
  GPSA_CHECK(out_ != nullptr && records_written_ < header_.num_vertices);
  offsets_.push_back(unit_cursor_);
  if (format_ == CsrFormat::kV1) {
    const auto push_entry = [this](std::int32_t entry) {
      const std::size_t at = buffer_.size();
      buffer_.resize(at + sizeof(entry));
      std::memcpy(buffer_.data() + at, &entry, sizeof(entry));
    };
    if (with_degree_) {
      push_entry(static_cast<std::int32_t>(targets.size()));
      ++unit_cursor_;
    }
    for (const VertexId dst : targets) {
      push_entry(static_cast<std::int32_t>(dst));
    }
    unit_cursor_ += targets.size();
    push_entry(kCsrEndOfList);
    ++unit_cursor_;
  } else {
    GPSA_DCHECK(std::is_sorted(targets.begin(), targets.end()));
    const std::size_t before = buffer_.size();
    encode_csr_v2_record(targets, buffer_);
    unit_cursor_ += buffer_.size() - before;
  }
  ++records_written_;
  if (buffer_.size() >= kWriterFlushBytes) {
    GPSA_RETURN_IF_ERROR(flush_buffer());
  }
  return Status::ok();
}

Status CsrFileWriter::finish(std::span<const VertexId> new_to_old) {
  GPSA_CHECK(out_ != nullptr && records_written_ == header_.num_vertices);
  offsets_.push_back(unit_cursor_);
  GPSA_RETURN_IF_ERROR(flush_buffer());
  if (format_ == CsrFormat::kV1) {
    GPSA_CHECK(unit_cursor_ == header_.num_entries);
  } else {
    header_.num_entries = unit_cursor_;
    out_->out.seekp(0);
    out_->out.write(reinterpret_cast<const char*>(&header_), sizeof(header_));
    if (!out_->out) {
      return io_error("write_csr_file: header rewrite failed for " +
                      base_path_);
    }
    out_->out.seekp(0, std::ios::end);
  }
  if (g_crash_before_index) {
    out_->out.flush();
    ::_exit(0);
  }

  std::ofstream idx(base_path_ + ".idx", std::ios::binary | std::ios::trunc);
  if (!idx) {
    return io_error("write_csr_file: cannot open " + base_path_ + ".idx");
  }
  idx.write(reinterpret_cast<const char*>(offsets_.data()),
            static_cast<std::streamsize>(offsets_.size() *
                                         sizeof(std::uint64_t)));
  if (!idx) {
    return io_error("write_csr_file: short write to " + base_path_ + ".idx");
  }
  if (order_ != CsrOrder::kNone) {
    GPSA_CHECK(new_to_old.size() == header_.num_vertices);
    GPSA_RETURN_IF_ERROR(write_perm_file(base_path_, order_, new_to_old));
  }
  return Status::ok();
}

Status write_csr_file(const Csr& csr, const std::string& base_path,
                      bool with_degree) {
  CsrFileWriter writer(base_path, CsrFormat::kV1, with_degree);
  GPSA_RETURN_IF_ERROR(writer.begin(csr.num_vertices(), csr.num_edges()));
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    GPSA_RETURN_IF_ERROR(writer.append_record(csr.neighbors(v)));
  }
  return writer.finish();
}

Status write_csr_file(const Csr& csr, const std::string& base_path,
                      bool with_degree, CsrFormat format, CsrOrder order) {
  if (format == CsrFormat::kV1) {
    if (order != CsrOrder::kNone) {
      return invalid_argument(
          "GPSA_CSR_ORDER requires GPSA_CSR_FORMAT=v2 (v1 layout is frozen "
          "for compatibility)");
    }
    return write_csr_file(csr, base_path, with_degree);
  }
  const VertexId n = csr.num_vertices();
  CsrFileWriter writer(base_path, CsrFormat::kV2, /*with_degree=*/true,
                       order);
  GPSA_RETURN_IF_ERROR(writer.begin(n, csr.num_edges()));

  std::vector<VertexId> new_to_old;
  std::vector<VertexId> old_to_new;
  if (order != CsrOrder::kNone) {
    new_to_old = build_order_permutation(csr, order);
    old_to_new.resize(n);
    for (VertexId new_id = 0; new_id < n; ++new_id) {
      old_to_new[new_to_old[new_id]] = new_id;
    }
  }
  // Records go out in *new* id order; each target list is relabeled and
  // sorted ascending (the gap encoder's precondition). Sorting within one
  // record is result-neutral: messages to distinct destinations commute
  // across the per-destination mailbox split, and duplicate targets
  // produce identical messages.
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId old_v = order == CsrOrder::kNone ? v : new_to_old[v];
    const auto nbrs = csr.neighbors(old_v);
    targets.assign(nbrs.begin(), nbrs.end());
    if (order != CsrOrder::kNone) {
      for (VertexId& t : targets) {
        t = old_to_new[t];
      }
    }
    std::sort(targets.begin(), targets.end());
    GPSA_RETURN_IF_ERROR(writer.append_record(targets));
  }
  return writer.finish(new_to_old);
}

Status preprocess_edges_to_csr(const EdgeList& edges,
                               const std::string& base_path,
                               bool with_degree) {
  // Counting-sort into adjacency order (§V.B: "an extra sorting operation
  // is needed to transform [edge lists] into the adjacency format").
  const Csr csr = Csr::from_edges(edges);
  return write_csr_file(csr, base_path, with_degree);
}

Status preprocess_edges_to_csr(const EdgeList& edges,
                               const std::string& base_path, bool with_degree,
                               CsrFormat format, CsrOrder order) {
  const Csr csr = Csr::from_edges(edges);
  return write_csr_file(csr, base_path, with_degree, format, order);
}

Status convert_csr_file(const std::string& in_base,
                        const std::string& out_base, CsrFormat format,
                        CsrOrder order, bool with_degree) {
  GPSA_ASSIGN_OR_RETURN(CsrFileReader reader, CsrFileReader::open(in_base));
  // Reconstruct the edge list in *original* ids — translating through the
  // input's permutation, if any — so ordering decisions always start from
  // the same graph and converting never compounds relabelings.
  const VertexId n = reader.num_vertices();
  const std::span<const VertexId> perm = reader.permutation();
  EdgeList edges;
  edges.ensure_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto rec = reader.record(v);
    const VertexId src = perm.empty() ? v : perm[v];
    for (const std::int32_t t : rec.targets) {
      const VertexId dst = static_cast<VertexId>(t);
      edges.add_edge(src, perm.empty() ? dst : perm[dst]);
    }
  }
  return preprocess_edges_to_csr(edges, out_base, with_degree, format, order);
}

Result<CsrFileReader> CsrFileReader::open(const std::string& base_path) {
  CsrFileReader reader;
  GPSA_ASSIGN_OR_RETURN(reader.entry_map_,
                        MmapFile::open(base_path, MmapFile::Mode::kReadOnly));
  if (reader.entry_map_.size() < sizeof(CsrFileHeader)) {
    return corrupt_data("csr file too small: " + base_path);
  }
  std::memcpy(&reader.header_, reader.entry_map_.data(),
              sizeof(CsrFileHeader));
  if (reader.header_.magic != CsrFileHeader::kMagic) {
    return corrupt_data("bad csr magic in " + base_path);
  }
  if (reader.header_.version != CsrFileHeader::kVersion &&
      reader.header_.version != CsrFileHeader::kVersionV2) {
    return corrupt_data("unsupported csr version in " + base_path);
  }
  const bool v2 = reader.header_.version == CsrFileHeader::kVersionV2;
  const std::uint64_t body_bytes =
      reader.entry_map_.size() - sizeof(CsrFileHeader);
  const std::uint64_t n = reader.header_.num_vertices;

  if (!v2) {
    if ((reader.header_.flags & ~CsrFileHeader::kFlagHasDegree) != 0) {
      return corrupt_data("unknown csr flags in " + base_path);
    }
    // Compare via division: `num_entries * 4` can wrap uint64 for a forged
    // header and collide with a small body.
    if (body_bytes % sizeof(std::int32_t) != 0 ||
        body_bytes / sizeof(std::int32_t) != reader.header_.num_entries) {
      return corrupt_data("csr entry count mismatch in " + base_path);
    }
    // Structural accounting: one entry per edge, one sentinel per vertex,
    // one degree per vertex when the flag is set. Checked up front so the
    // per-record loop below cannot be fooled by a self-consistent offset
    // table over the wrong totals.
    const std::uint64_t per_vertex =
        1 + (reader.header_.flags & CsrFileHeader::kFlagHasDegree ? 1 : 0);
    if (reader.header_.num_entries !=
        reader.header_.num_edges + per_vertex * n) {
      return corrupt_data("csr header totals inconsistent in " + base_path);
    }
    reader.entries_ = std::span<const std::int32_t>(
        reinterpret_cast<const std::int32_t*>(reader.entry_map_.data() +
                                              sizeof(CsrFileHeader)),
        reader.header_.num_entries);
  } else {
    const std::uint32_t known =
        CsrFileHeader::kFlagHasDegree | CsrFileHeader::kOrderMask;
    if ((reader.header_.flags & ~known) != 0) {
      return corrupt_data("unknown csr flags in " + base_path);
    }
    // v2 records carry the degree varint structurally; a v2 file claiming
    // otherwise was not written by any known writer.
    if ((reader.header_.flags & CsrFileHeader::kFlagHasDegree) == 0) {
      return corrupt_data("csr v2 file missing degree flag in " + base_path);
    }
    const std::uint32_t order_bits =
        (reader.header_.flags & CsrFileHeader::kOrderMask) >>
        CsrFileHeader::kOrderShift;
    if (order_bits > static_cast<std::uint32_t>(CsrOrder::kBfs)) {
      return corrupt_data("unknown csr order in " + base_path);
    }
    if (n > static_cast<std::uint64_t>(
                std::numeric_limits<std::int32_t>::max())) {
      return corrupt_data("csr v2 vertex count exceeds int32 in " + base_path);
    }
    // v2 num_entries counts body *bytes* directly.
    if (body_bytes != reader.header_.num_entries) {
      return corrupt_data("csr entry count mismatch in " + base_path);
    }
    reader.body_ = std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(reader.entry_map_.data() +
                                              sizeof(CsrFileHeader)),
        body_bytes);
  }
  GPSA_RETURN_IF_ERROR(reader.entry_map_.advise(MmapFile::Advice::kSequential));

  GPSA_ASSIGN_OR_RETURN(
      reader.index_map_,
      MmapFile::open(base_path + ".idx", MmapFile::Mode::kReadOnly));
  const std::uint64_t expected_idx = (n + 1) * sizeof(std::uint64_t);
  if (reader.index_map_.size() != expected_idx) {
    return corrupt_data("csr index size mismatch in " + base_path + ".idx");
  }
  reader.offsets_ = reader.index_map_.as_span<const std::uint64_t>();

  // Validate the whole record structure once, here, so record() below can
  // stay an infallible accessor: every downstream consumer (dispatchers,
  // baselines, tests) indexes through offsets_ without re-checking. Both
  // files are untrusted input — a hostile offset table would otherwise
  // turn record() into an out-of-bounds read.
  if (reader.offsets_[0] != 0 ||
      reader.offsets_[n] != reader.header_.num_entries) {
    return corrupt_data("csr index endpoints invalid in " + base_path +
                        ".idx");
  }
  if (!v2) {
    const bool with_degree =
        (reader.header_.flags & CsrFileHeader::kFlagHasDegree) != 0;
    const std::uint64_t per_vertex = with_degree ? 2 : 1;
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t begin = reader.offsets_[v];
      const std::uint64_t end = reader.offsets_[v + 1];
      // Monotonicity plus the endpoint checks above bound every record
      // inside entries_ (begin is the previous record's validated end).
      // The minimum record is sentinel-only (+ degree). Written to avoid
      // arithmetic on unvalidated offsets: `begin + per_vertex` could wrap.
      if (end > reader.header_.num_entries || begin > end ||
          end - begin < per_vertex) {
        return corrupt_data("csr record " + std::to_string(v) +
                            " malformed in " + base_path + ".idx");
      }
      std::uint64_t pos = begin;
      const std::uint64_t degree = end - begin - per_vertex;
      if (with_degree) {
        if (reader.entries_[pos] != static_cast<std::int64_t>(degree)) {
          return corrupt_data("csr record " + std::to_string(v) +
                              " degree mismatch in " + base_path);
        }
        ++pos;
      }
      for (; pos != end - 1; ++pos) {
        const std::int32_t target = reader.entries_[pos];
        if (target < 0 || static_cast<std::uint64_t>(target) >= n) {
          return corrupt_data("csr record " + std::to_string(v) +
                              " target out of range in " + base_path);
        }
      }
      if (reader.entries_[end - 1] != kCsrEndOfList) {
        return corrupt_data("csr record " + std::to_string(v) +
                            " missing sentinel in " + base_path);
      }
      reader.max_record_entries_ =
          std::max<std::size_t>(reader.max_record_entries_, end - begin);
    }
  } else {
    // Every record is decoded once by the checked decoder; after this
    // pass the unchecked streaming decoder is safe on any record, and
    // max_record_entries_ bounds the decode scratch allocations.
    std::uint64_t degree_sum = 0;
    std::vector<std::int32_t> decoded;
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t begin = reader.offsets_[v];
      const std::uint64_t end = reader.offsets_[v + 1];
      if (end > reader.header_.num_entries || begin > end) {
        return corrupt_data("csr record " + std::to_string(v) +
                            " malformed in " + base_path + ".idx");
      }
      decoded.clear();
      const Status st = decode_csr_v2_record_checked(
          reader.body_.subspan(begin, end - begin),
          static_cast<VertexId>(n), decoded);
      if (!st.is_ok()) {
        return corrupt_data("csr record " + std::to_string(v) + " in " +
                            base_path + ": " + st.to_string());
      }
      degree_sum += static_cast<std::uint32_t>(decoded[0]);
      reader.max_record_entries_ =
          std::max(reader.max_record_entries_, decoded.size());
    }
    if (degree_sum != reader.header_.num_edges) {
      return corrupt_data("csr degree sum disagrees with header in " +
                          base_path);
    }
    const CsrOrder order = reader.order();
    if (order != CsrOrder::kNone) {
      GPSA_ASSIGN_OR_RETURN(
          reader.permutation_,
          read_perm_file(base_path, order, static_cast<VertexId>(n)));
    }
  }
  return reader;
}

CsrFileReader::VertexRecord CsrFileReader::record(VertexId v) const {
  GPSA_CHECK(v < header_.num_vertices);
  VertexRecord out;
  out.vertex = v;
  if (format() == CsrFormat::kV2) {
    record_scratch_.resize(max_record_entries_);
    const std::size_t count = decode_csr_v2_record_fast(
        body_.data() + offsets_[v], record_scratch_.data());
    out.out_degree = static_cast<std::uint32_t>(record_scratch_[0]);
    out.targets = std::span<const std::int32_t>(record_scratch_.data() + 1,
                                                count - 2);
    return out;
  }
  std::uint64_t pos = offsets_[v];
  const std::uint64_t end = offsets_[v + 1];
  if (has_degree()) {
    out.out_degree = static_cast<std::uint32_t>(entries_[pos]);
    ++pos;
  } else {
    // end - pos includes the sentinel.
    out.out_degree = static_cast<std::uint32_t>(end - pos - 1);
  }
  GPSA_DCHECK(entries_[end - 1] == kCsrEndOfList);
  out.targets = entries_.subspan(pos, end - 1 - pos);
  return out;
}

std::uint32_t CsrFileReader::out_degree(VertexId v) const {
  GPSA_CHECK(v < header_.num_vertices);
  if (format() == CsrFormat::kV2) {
    const std::uint8_t* p = body_.data() + offsets_[v];
    return read_varint_fast(p);
  }
  const std::uint64_t begin = offsets_[v];
  if (has_degree()) {
    return static_cast<std::uint32_t>(entries_[begin]);
  }
  return static_cast<std::uint32_t>(offsets_[v + 1] - begin - 1);
}

}  // namespace gpsa
