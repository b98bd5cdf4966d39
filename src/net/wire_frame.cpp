#include "net/wire_frame.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace gpsa {
namespace {

// Table-driven reflected CRC-32, generated once at startup.
/// Slicing-by-8 tables: table[0] is the classic byte table, and
/// table[k][b] is byte b's CRC pushed through k more zero bytes, so one
/// step folds eight bytes with independent lookups instead of a chain of
/// eight dependent ones.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb8'8320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256 * 7; ++i) {
    const std::uint32_t prev = table[i / 256][i % 256];
    table[i / 256 + 1][i % 256] = (prev >> 8) ^ table[0][prev & 0xffu];
  }
  return table;
}

/// Stores v's low `bytes` bytes little-endian at p (one store once
/// compiled: a PARTIALS is encoded on every link's hot path).
void store_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

Status payload_too_short(const char* what) {
  return corrupt_data(std::string("wire frame: ") + what +
                      " payload truncated");
}

}  // namespace

bool frame_type_known(std::uint16_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kEndOfSuperstep:
    case FrameType::kValues:
    case FrameType::kAbort:
    case FrameType::kPartials:
      return true;
  }
  return false;
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloAck:
      return "HELLO_ACK";
    case FrameType::kEndOfSuperstep:
      return "END_OF_SUPERSTEP";
    case FrameType::kValues:
      return "VALUES";
    case FrameType::kAbort:
      return "ABORT";
    case FrameType::kPartials:
      return "PARTIALS";
  }
  return "UNKNOWN";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  // Every frame's payload passes through here on both ends, so at a byte
  // per dependent lookup it capped a link near 300 MB/s.
  static const CrcTables table = make_crc_tables();
  std::uint32_t c = seed ^ 0xffff'ffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = get_u32(data) ^ c;
    const std::uint32_t hi = get_u32(data + 4);
    c = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
        table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
        table[3][hi & 0xffu] ^ table[2][(hi >> 8) & 0xffu] ^
        table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = table[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffff'ffffu;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

void encode_frame_header(std::uint8_t* out, std::uint16_t version,
                         FrameType type, std::uint16_t src_rank,
                         std::uint32_t seq, std::uint32_t payload_len,
                         std::uint32_t payload_crc) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kFrameHeaderSize);
  put_u32(bytes, kWireMagic);
  put_u16(bytes, version);
  put_u16(bytes, static_cast<std::uint16_t>(type));
  put_u16(bytes, src_rank);
  put_u16(bytes, 0);  // reserved
  put_u32(bytes, seq);
  put_u32(bytes, payload_len);
  put_u32(bytes, payload_crc);
  GPSA_DCHECK(bytes.size() == kFrameHeaderSize);
  std::memcpy(out, bytes.data(), kFrameHeaderSize);
}

void append_frame(std::vector<std::uint8_t>& out, std::uint16_t version,
                  FrameType type, std::uint16_t src_rank, std::uint32_t seq,
                  const std::uint8_t* payload, std::size_t payload_len) {
  GPSA_CHECK(payload_len <= kMaxFramePayload);
  const std::size_t header_at = out.size();
  out.resize(out.size() + kFrameHeaderSize);
  encode_frame_header(out.data() + header_at, version, type, src_rank, seq,
                      static_cast<std::uint32_t>(payload_len),
                      crc32(payload, payload_len));
  out.insert(out.end(), payload, payload + payload_len);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned_) {
    return;  // stream already condemned; don't buffer more
  }
  // Compact the consumed prefix before growing, once it is at least as
  // long as the unconsumed tail: the move costs no more than the bytes
  // already handed out, and the buffer stays within twice one in-flight
  // frame plus the last read, even on a link that never drains empty.
  if (consumed_ > 0 && consumed_ >= buffer_.size() - consumed_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Status FrameDecoder::validate_header(const FrameHeader& header) const {
  const bool hello = header.type == FrameType::kHello ||
                     header.type == FrameType::kHelloAck;
  if (hello) {
    if (header.version < kWireVersionMin ||
        header.version > kWireVersionMax) {
      return corrupt_data(
          "wire frame: hello version " + std::to_string(header.version) +
          " outside supported [" + std::to_string(kWireVersionMin) + ", " +
          std::to_string(kWireVersionMax) + "]");
    }
  } else if (header.version != accept_version_) {
    return corrupt_data("wire frame: version " +
                        std::to_string(header.version) +
                        " != negotiated " + std::to_string(accept_version_));
  }
  if (header.payload_len > kMaxFramePayload) {
    return corrupt_data("wire frame: payload length " +
                        std::to_string(header.payload_len) +
                        " exceeds cap " + std::to_string(kMaxFramePayload));
  }
  return Status::ok();
}

Result<bool> FrameDecoder::next(Frame& out) {
  if (poisoned_) {
    return corrupt_data(poison_message_);
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) {
    return false;
  }
  const std::uint8_t* p = buffer_.data() + consumed_;

  auto poison = [this](Status status) -> Result<bool> {
    poisoned_ = true;
    poison_message_ = status.message();
    buffer_.clear();
    consumed_ = 0;
    return status;
  };

  if (get_u32(p) != kWireMagic) {
    return poison(corrupt_data("wire frame: bad magic"));
  }
  FrameHeader header;
  header.version = get_u16(p + 4);
  const std::uint16_t raw_type = get_u16(p + 6);
  if (!frame_type_known(raw_type)) {
    return poison(corrupt_data("wire frame: unknown type " +
                               std::to_string(raw_type)));
  }
  header.type = static_cast<FrameType>(raw_type);
  header.src_rank = get_u16(p + 8);
  if (get_u16(p + 10) != 0) {
    return poison(corrupt_data("wire frame: reserved field nonzero"));
  }
  header.seq = get_u32(p + 12);
  header.payload_len = get_u32(p + 16);
  header.payload_crc = get_u32(p + 20);
  if (Status status = validate_header(header); !status.is_ok()) {
    return poison(std::move(status));
  }
  if (available < kFrameHeaderSize + header.payload_len) {
    return false;  // wait for the rest of the payload
  }
  const std::uint8_t* payload = p + kFrameHeaderSize;
  const std::uint32_t actual = crc32(payload, header.payload_len);
  if (actual != header.payload_crc) {
    return poison(corrupt_data("wire frame: payload CRC mismatch on " +
                               std::string(frame_type_name(header.type)) +
                               " frame"));
  }
  out.header = header;
  out.payload.assign(payload, payload + header.payload_len);
  consumed_ += kFrameHeaderSize + header.payload_len;
  return true;
}

// --- Typed payloads -----------------------------------------------------

std::vector<std::uint8_t> HelloPayload::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(20);
  put_u16(out, version_min);
  put_u16(out, version_max);
  put_u32(out, rank);
  put_u32(out, ranks);
  put_u64(out, graph_fingerprint);
  return out;
}

Result<HelloPayload> HelloPayload::decode(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != 20) {
    return payload_too_short("HELLO");
  }
  HelloPayload out;
  out.version_min = get_u16(bytes.data());
  out.version_max = get_u16(bytes.data() + 2);
  out.rank = get_u32(bytes.data() + 4);
  out.ranks = get_u32(bytes.data() + 8);
  out.graph_fingerprint = get_u64(bytes.data() + 12);
  if (out.version_min > out.version_max) {
    return corrupt_data("wire frame: HELLO version range inverted");
  }
  return out;
}

std::vector<std::uint8_t> HelloAckPayload::encode() const {
  std::vector<std::uint8_t> out;
  put_u16(out, version);
  return out;
}

Result<HelloAckPayload> HelloAckPayload::decode(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != 2) {
    return payload_too_short("HELLO_ACK");
  }
  HelloAckPayload out;
  out.version = get_u16(bytes.data());
  return out;
}

// superstep, wire_bytes, wire_frames (u64 each), row length (u32), then
// {batch_frames, messages} (u64 each) per destination rank.
constexpr std::size_t kEosFixedBytes = 28;
constexpr std::size_t kEosCellBytes = 16;

std::size_t EndOfSuperstepPayload::encoded_size(std::uint32_t ranks) {
  return kEosFixedBytes + kEosCellBytes * ranks;
}

std::vector<std::uint8_t> EndOfSuperstepPayload::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(static_cast<std::uint32_t>(row.size())));
  put_u64(out, superstep);
  put_u64(out, wire_bytes);
  put_u64(out, wire_frames);
  put_u32(out, static_cast<std::uint32_t>(row.size()));
  for (const Cell& cell : row) {
    put_u64(out, cell.batch_frames);
    put_u64(out, cell.messages);
  }
  return out;
}

Result<EndOfSuperstepPayload> EndOfSuperstepPayload::decode(
    const std::vector<std::uint8_t>& bytes, std::uint32_t ranks) {
  if (bytes.size() < kEosFixedBytes) {
    return payload_too_short("END_OF_SUPERSTEP");
  }
  const std::uint32_t count = get_u32(bytes.data() + 24);
  if (bytes.size() != kEosFixedBytes + kEosCellBytes * std::size_t{count}) {
    return corrupt_data("wire frame: END_OF_SUPERSTEP row length disagrees "
                        "with payload length");
  }
  if (count != ranks) {
    return corrupt_data("wire frame: END_OF_SUPERSTEP row of " +
                        std::to_string(count) + " ranks in a cluster of " +
                        std::to_string(ranks));
  }
  EndOfSuperstepPayload out;
  out.superstep = get_u64(bytes.data());
  out.wire_bytes = get_u64(bytes.data() + 8);
  out.wire_frames = get_u64(bytes.data() + 16);
  out.row.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = bytes.data() + kEosFixedBytes + kEosCellBytes * i;
    out.row[i].batch_frames = get_u64(p);
    out.row[i].messages = get_u64(p + 8);
  }
  return out;
}

std::vector<std::uint8_t> ValuesPayload::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(13 + entries.size() * 8);
  put_u64(out, superstep);
  out.push_back(final_sync);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& [vertex, payload] : entries) {
    put_u32(out, vertex);
    put_u32(out, payload);
  }
  return out;
}

Result<ValuesPayload> ValuesPayload::decode(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 13) {
    return payload_too_short("VALUES");
  }
  ValuesPayload out;
  out.superstep = get_u64(bytes.data());
  out.final_sync = bytes[8];
  const std::uint32_t count = get_u32(bytes.data() + 9);
  if (out.final_sync > 1) {
    return corrupt_data("wire frame: VALUES final flag not boolean");
  }
  if (bytes.size() != 13 + static_cast<std::size_t>(count) * 8) {
    return corrupt_data("wire frame: VALUES count disagrees with payload "
                        "length");
  }
  out.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = bytes.data() + 13 + static_cast<std::size_t>(i) * 8;
    out.entries.emplace_back(get_u32(p), get_u32(p + 4));
  }
  return out;
}

void PartialsPayload::encode(std::vector<std::uint8_t>& out) const {
  out.resize(kFixedBytes + kPartialBytes * partials.size());
  std::uint8_t* at = out.data();
  store_le(at, superstep, 8);
  store_le(at + 8, messages, 8);
  at += kFixedBytes;
  for (const Partial& p : partials) {
    store_le(at, p.dst, 4);
    store_le(at + 4, p.value, 8);
    at += kPartialBytes;
  }
}

Result<PartialsPayload> PartialsPayload::decode(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFixedBytes ||
      (bytes.size() - kFixedBytes) % kPartialBytes != 0) {
    return corrupt_data("wire frame: PARTIALS of " +
                        std::to_string(bytes.size()) +
                        " bytes is not a header and whole partials");
  }
  PartialsPayload out;
  out.superstep = get_u64(bytes.data());
  out.messages = get_u64(bytes.data() + 8);
  const std::size_t count = (bytes.size() - kFixedBytes) / kPartialBytes;
  if (out.messages < count) {
    return corrupt_data("wire frame: PARTIALS of " + std::to_string(count) +
                        " partials combines only " +
                        std::to_string(out.messages) + " messages");
  }
  out.partials.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = bytes.data() + kFixedBytes + kPartialBytes * i;
    out.partials[i].dst = get_u32(p);
    out.partials[i].value = get_u64(p + 4);
    if ((out.partials[i].value >> 63) != 0) {
      return corrupt_data("wire frame: PARTIALS partial for vertex " +
                          std::to_string(out.partials[i].dst) +
                          " at or above 2^63");
    }
  }
  return out;
}

Result<std::uint16_t> negotiate_version(std::uint16_t local_min,
                                        std::uint16_t local_max,
                                        std::uint16_t remote_min,
                                        std::uint16_t remote_max) {
  const std::uint16_t low = std::max(local_min, remote_min);
  const std::uint16_t high = std::min(local_max, remote_max);
  if (low > high) {
    return invalid_argument(
        "wire version ranges disjoint: local [" + std::to_string(local_min) +
        ", " + std::to_string(local_max) + "] vs remote [" +
        std::to_string(remote_min) + ", " + std::to_string(remote_max) + "]");
  }
  return high;
}

}  // namespace gpsa
