// Slot access lives in storage/slot.hpp (the one sanctioned atomic_ref
// construction site — gpsa_lint rule slot-atomic-ref); this TU only
// handles file lifecycle, checkpointing, and page-cache advice.
#include "storage/value_file.hpp"

#include <cstring>

namespace gpsa {

std::size_t ValueFile::file_size(VertexId num_vertices) {
  return sizeof(ValueFileHeader) +
         static_cast<std::size_t>(num_vertices) * kColumns * sizeof(Slot);
}

Result<ValueFile> ValueFile::create(const std::string& path,
                                    VertexId num_vertices,
                                    const std::string& app_tag) {
  if (num_vertices == 0) {
    return invalid_argument("ValueFile::create: zero vertices");
  }
  ValueFile out;
  GPSA_ASSIGN_OR_RETURN(out.map_,
                        MmapFile::create(path, file_size(num_vertices)));
  ValueFileHeader& h = out.header();
  h.magic = ValueFileHeader::kMagic;
  h.version = ValueFileHeader::kVersion;
  h.num_vertices = num_vertices;
  h.completed_supersteps = 0;
  std::memset(h.app_tag, 0, sizeof(h.app_tag));
  std::strncpy(h.app_tag, app_tag.c_str(), sizeof(h.app_tag) - 1);
  // The value file is accessed randomly by computing actors (§IV.B: "the
  // vertex values should be accessed both randomly and efficiently").
  GPSA_RETURN_IF_ERROR(out.map_.advise(MmapFile::Advice::kRandom));
  return out;
}

Result<ValueFile> ValueFile::open(const std::string& path) {
  ValueFile out;
  GPSA_ASSIGN_OR_RETURN(out.map_,
                        MmapFile::open(path, MmapFile::Mode::kReadWrite));
  if (out.map_.size() < sizeof(ValueFileHeader)) {
    return corrupt_data("value file too small: " + path);
  }
  const ValueFileHeader& h = out.header();
  if (h.magic != ValueFileHeader::kMagic) {
    return corrupt_data("bad value-file magic in " + path);
  }
  if (h.version != ValueFileHeader::kVersion) {
    return corrupt_data("unsupported value-file version in " + path);
  }
  if (out.map_.size() != file_size(h.num_vertices)) {
    return corrupt_data("value-file size mismatch in " + path);
  }
  GPSA_RETURN_IF_ERROR(out.map_.advise(MmapFile::Advice::kRandom));
  return out;
}

std::string ValueFile::app_tag() const {
  const ValueFileHeader& h = header();
  return std::string(h.app_tag,
                     ::strnlen(h.app_tag, sizeof(h.app_tag)));
}

Status ValueFile::advise_vertex_range(VertexId begin, VertexId end,
                                      MmapFile::Advice advice) {
  const VertexId n = header().num_vertices;
  end = end < n ? end : n;
  if (begin >= end) {
    return Status::ok();
  }
  const std::size_t offset =
      sizeof(ValueFileHeader) +
      static_cast<std::size_t>(begin) * kColumns * sizeof(Slot);
  const std::size_t length =
      static_cast<std::size_t>(end - begin) * kColumns * sizeof(Slot);
  return map_.advise_range(offset, length, advice);
}

Status ValueFile::checkpoint(std::uint64_t completed_supersteps) {
  flush_syscalls_ += 2;  // data msync + header msync below
  GPSA_RETURN_IF_ERROR(map_.sync());
  header().completed_supersteps = completed_supersteps;
  return map_.sync();
}

}  // namespace gpsa
