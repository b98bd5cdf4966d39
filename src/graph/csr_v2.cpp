#include "graph/csr_v2.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>

#include "util/check.hpp"
#include "util/knobs.hpp"

namespace gpsa {

const char* csr_format_name(CsrFormat format) {
  switch (format) {
    case CsrFormat::kV1:
      return "v1";
    case CsrFormat::kV2:
      return "v2";
  }
  return "unknown";
}

Result<CsrFormat> parse_csr_format(std::string_view name) {
  if (name == "v1") {
    return CsrFormat::kV1;
  }
  if (name == "v2") {
    return CsrFormat::kV2;
  }
  return invalid_argument("unknown csr format '" + std::string(name) +
                          "' (expected v1|v2)");
}

CsrFormat resolve_csr_format(std::optional<CsrFormat> requested) {
  if (requested.has_value()) {
    return *requested;
  }
  return parse_csr_format(knob_or_default<std::string>("GPSA_CSR_FORMAT"))
      .value();
}

const char* csr_order_name(CsrOrder order) {
  switch (order) {
    case CsrOrder::kNone:
      return "none";
    case CsrOrder::kDegree:
      return "degree";
    case CsrOrder::kBfs:
      return "bfs";
  }
  return "unknown";
}

Result<CsrOrder> parse_csr_order(std::string_view name) {
  if (name == "none") {
    return CsrOrder::kNone;
  }
  if (name == "degree") {
    return CsrOrder::kDegree;
  }
  if (name == "bfs") {
    return CsrOrder::kBfs;
  }
  return invalid_argument("unknown csr order '" + std::string(name) +
                          "' (expected none|degree|bfs)");
}

CsrOrder resolve_csr_order(std::optional<CsrOrder> requested) {
  if (requested.has_value()) {
    return *requested;
  }
  return parse_csr_order(knob_or_default<std::string>("GPSA_CSR_ORDER"))
      .value();
}

void append_varint(std::vector<std::uint8_t>& out, std::uint32_t value) {
  while (value >= 0x80U) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80U);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

bool decode_varint(const std::uint8_t*& p, const std::uint8_t* end,
                   std::uint32_t& value) {
  std::uint32_t out = 0;
  for (unsigned shift = 0; shift < 7 * kMaxVarintBytes; shift += 7) {
    if (p == end) {
      return false;  // truncated group
    }
    const std::uint32_t b = *p++;
    // The 5th byte may only carry the top 4 bits of a u32; anything more
    // is an overflow the shift below would silently drop.
    if (shift == 28 && (b & ~0x0fU) != 0) {
      return false;
    }
    out |= (b & 0x7fU) << shift;
    if ((b & 0x80U) == 0) {
      value = out;
      return true;
    }
  }
  return false;  // continuation bit still set after 5 bytes
}

void encode_csr_v2_record(std::span<const VertexId> targets,
                          std::vector<std::uint8_t>& out) {
  append_varint(out, static_cast<std::uint32_t>(targets.size()));
  VertexId prev = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId dst = targets[i];
    if (i % kCsrV2RestartInterval == 0) {
      append_varint(out, dst);  // restart point: absolute value
    } else {
      GPSA_DCHECK(dst >= prev);
      append_varint(out, dst - prev);
    }
    prev = dst;
  }
}

Status decode_csr_v2_record_checked(std::span<const std::uint8_t> bytes,
                                    VertexId num_vertices,
                                    std::vector<std::int32_t>& out) {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint32_t degree = 0;
  if (!decode_varint(p, end, degree)) {
    return corrupt_data("csr v2 record: bad degree varint");
  }
  // Each target costs at least one body byte, which bounds the decoded
  // size before any allocation — a forged huge degree cannot command a
  // huge resize.
  if (degree > bytes.size()) {
    return corrupt_data("csr v2 record: degree exceeds record bytes");
  }
  out.push_back(static_cast<std::int32_t>(degree));
  VertexId prev = 0;
  for (std::uint32_t i = 0; i < degree; ++i) {
    std::uint32_t raw = 0;
    if (!decode_varint(p, end, raw)) {
      return corrupt_data("csr v2 record: bad target varint");
    }
    VertexId dst = 0;
    if (i % kCsrV2RestartInterval == 0) {
      dst = raw;
    } else {
      if (raw > std::numeric_limits<VertexId>::max() - prev) {
        return corrupt_data("csr v2 record: gap overflows vertex id");
      }
      dst = prev + raw;
    }
    // Ascending across restart points too: the encoder sorts the whole
    // record, so a descending restart is corruption, not a format option.
    if (i > 0 && dst < prev) {
      return corrupt_data("csr v2 record: non-ascending target");
    }
    if (dst >= num_vertices) {
      return corrupt_data("csr v2 record: target out of range");
    }
    out.push_back(static_cast<std::int32_t>(dst));
    prev = dst;
  }
  if (p != end) {
    return corrupt_data("csr v2 record: trailing bytes");
  }
  out.push_back(kCsrEndOfList);
  return Status::ok();
}

std::size_t decode_csr_v2_record_fast(const std::uint8_t* p,
                                      std::int32_t* out) {
  const std::uint32_t degree = read_varint_fast(p);
  out[0] = static_cast<std::int32_t>(degree);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < degree; ++i) {
    const std::uint32_t raw = read_varint_fast(p);
    prev = (i % kCsrV2RestartInterval == 0) ? raw : prev + raw;
    out[1 + i] = static_cast<std::int32_t>(prev);
  }
  out[1 + degree] = kCsrEndOfList;
  return static_cast<std::size_t>(degree) + 2;
}

std::vector<VertexId> build_order_permutation(const Csr& csr,
                                              CsrOrder order) {
  const VertexId n = csr.num_vertices();
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  if (order == CsrOrder::kNone || n == 0) {
    return perm;
  }
  // Degree-descending candidate order; stable so equal-degree vertices
  // keep their id order and the permutation is deterministic.
  std::vector<VertexId> by_degree = perm;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&csr](VertexId a, VertexId b) {
                     return csr.out_degree(a) > csr.out_degree(b);
                   });
  if (order == CsrOrder::kDegree) {
    return by_degree;
  }
  // BFS child order: roots tried hubs-first so giant components are laid
  // out from their densest vertex; isolated/unreached vertices land when
  // their candidate-root turn comes, keeping the map total.
  std::vector<VertexId> visit_order;
  visit_order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<VertexId> queue;
  for (const VertexId root : by_degree) {
    if (visited[root]) {
      continue;
    }
    visited[root] = true;
    queue.clear();
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      visit_order.push_back(v);
      for (const VertexId next : csr.neighbors(v)) {
        if (!visited[next]) {
          visited[next] = true;
          queue.push_back(next);
        }
      }
    }
  }
  GPSA_CHECK(visit_order.size() == n);
  return visit_order;
}

Status write_perm_file(const std::string& base_path, CsrOrder order,
                       std::span<const VertexId> new_to_old) {
  const std::string path = base_path + ".perm";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return io_error("write_perm_file: cannot open " + path);
  }
  CsrPermHeader header{};
  header.magic = CsrPermHeader::kMagic;
  header.version = CsrPermHeader::kVersion;
  header.order = static_cast<std::uint32_t>(order);
  header.num_vertices = static_cast<std::uint32_t>(new_to_old.size());
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(new_to_old.data()),
            static_cast<std::streamsize>(new_to_old.size_bytes()));
  if (!out) {
    return io_error("write_perm_file: short write to " + path);
  }
  return Status::ok();
}

Result<std::vector<VertexId>> read_perm_file(const std::string& base_path,
                                             CsrOrder order,
                                             VertexId num_vertices) {
  const std::string path = base_path + ".perm";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return not_found("read_perm_file: cannot open " + path);
  }
  CsrPermHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || header.magic != CsrPermHeader::kMagic) {
    return corrupt_data("bad perm magic in " + path);
  }
  if (header.version != CsrPermHeader::kVersion) {
    return corrupt_data("unsupported perm version in " + path);
  }
  if (header.order != static_cast<std::uint32_t>(order)) {
    return corrupt_data("perm order disagrees with csr flags in " + path);
  }
  if (header.num_vertices != num_vertices) {
    return corrupt_data("perm vertex count mismatch in " + path);
  }
  std::vector<VertexId> perm(num_vertices);
  in.read(reinterpret_cast<char*>(perm.data()),
          static_cast<std::streamsize>(perm.size() * sizeof(VertexId)));
  if (!in || in.peek() != std::ifstream::traits_type::eof()) {
    return corrupt_data("perm size mismatch in " + path);
  }
  // Bijection check: engines write output arrays through this map, so an
  // out-of-range or duplicated entry would be an OOB/aliased write.
  std::vector<bool> seen(num_vertices, false);
  for (const VertexId old_id : perm) {
    if (old_id >= num_vertices || seen[old_id]) {
      return corrupt_data("perm is not a permutation in " + path);
    }
    seen[old_id] = true;
  }
  return perm;
}

}  // namespace gpsa
