// Wire-frame codec for the cluster data plane (DESIGN.md §14).
//
// Every byte that crosses a rank boundary travels inside a frame:
//
//   [ header: 24 bytes ][ payload: header.payload_len bytes ]
//
//   offset  field        notes
//   0       magic  u32   0x4750'534e ("GPSN")
//   4       version u16  negotiated per link (kHello carries min/max)
//   6       type    u16  FrameType
//   8       src_rank u16 sending rank
//   10      reserved u16 must be zero (rejected otherwise)
//   12      seq     u32  per-(sender, type) sequence number
//   16      payload_len u32  <= kMaxFramePayload
//   20      payload_crc u32  CRC-32 (zlib polynomial) over the payload
//
// All header fields are little-endian on the wire (explicit byte
// load/store below, so the codec is byte-order independent even though
// every deployment target today is little-endian). BATCH payloads are the
// raw bytes of a leased MessageBatchPool buffer — contiguous
// {dst u32, value u32} pairs, ascending dst, no padding
// (static_asserted in core/message_pool.hpp) — which is what makes the
// lease→wire path copy-free on the send side. A sum-fold program's
// messages travel as SUM_BATCH instead: one exact 64-bit partial sum per
// destination (SumBatchPayload), counted as the messages it combines.
//
// Frame types:
//
//   type  name              payload
//   1     HELLO             version range, rank, ranks, graph fingerprint
//   2     HELLO_ACK         chosen version
//   3     BATCH             u64 superstep, {dst u32, value u32} messages
//   4     END_OF_SUPERSTEP  superstep, sender's wire totals, send row
//   5, 6  (retired: version 1's rank-0 barrier, never reused)
//   7     VALUES            final value sync: (vertex, payload) pairs
//   8     ABORT             reason text
//   9     SUM_BATCH         u64 superstep, u64 messages, {dst u32, sum u64}
//
// The decoder is incremental (feed bytes as they arrive off a nonblocking
// socket; frames pop out as they complete) and total: arbitrary byte
// streams either yield frames or a clean CorruptData status, never a
// crash or an unbounded allocation (fuzz/fuzz_wire_frame.cpp holds it to
// that contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "util/status.hpp"

namespace gpsa {

/// Protocol versions this build speaks. kHello advertises the closed
/// range; the acceptor picks the highest version both sides share.
/// Version 2 closed a superstep on END_OF_SUPERSTEP alone; version 3 adds
/// SUM_BATCH, which a sum-fold program's ranks must both speak, so a
/// version-2 rank aborts at HELLO rather than mid-run (and a version-1
/// rank, barrier through rank 0, as before).
inline constexpr std::uint16_t kWireVersionMin = 3;
inline constexpr std::uint16_t kWireVersionMax = 3;

inline constexpr std::uint32_t kWireMagic = 0x4750'534e;  // "GPSN"

/// Frames larger than this are rejected before any payload allocation —
/// the decoder's defence against a corrupt length field asking for GiBs.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

inline constexpr std::size_t kFrameHeaderSize = 24;

enum class FrameType : std::uint16_t {
  kHello = 1,           // version range + topology + graph fingerprint
  kHelloAck = 2,        // chosen version (or the rejection travels as kAbort)
  kBatch = 3,           // u64 superstep + raw VertexMessage array
  kEndOfSuperstep = 4,  // the superstep's barrier: sender's send row + wire
  // 5 and 6 (version 1's rank-0 barrier) are retired, never reused.
  kValues = 7,          // final value sync: (vertex, payload) pairs
  kAbort = 8,           // clean failure propagation, payload = reason text
  kSumBatch = 9,        // u64 superstep + u64 messages + exact partial sums
};

/// True for the types the decoder admits (anything else is CorruptData).
[[nodiscard]] bool frame_type_known(std::uint16_t raw);
const char* frame_type_name(FrameType type);

struct FrameHeader {
  std::uint16_t version = kWireVersionMax;
  FrameType type = FrameType::kHello;
  std::uint16_t src_rank = 0;
  std::uint32_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (reflected, polynomial 0xEDB88320 — zlib/binascii compatible,
/// so corpus seeds and cross-language tools can compute it).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed = 0);

// --- Little-endian primitives (shared with the typed payloads) ----------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint16_t get_u16(const std::uint8_t* p);
std::uint32_t get_u32(const std::uint8_t* p);
std::uint64_t get_u64(const std::uint8_t* p);

// --- Encoding -----------------------------------------------------------

/// Serializes the 24-byte header for a payload of `payload_len` bytes
/// whose CRC the caller already computed. `out` must point at
/// kFrameHeaderSize writable bytes.
void encode_frame_header(std::uint8_t* out, std::uint16_t version,
                         FrameType type, std::uint16_t src_rank,
                         std::uint32_t seq, std::uint32_t payload_len,
                         std::uint32_t payload_crc);

/// Appends a complete frame (header + copied payload) to `out`. The
/// transport's hot path (BATCH) does NOT use this — it writes the header
/// and the leased buffer's bytes as two iovecs — but control frames and
/// tests do.
void append_frame(std::vector<std::uint8_t>& out, std::uint16_t version,
                  FrameType type, std::uint16_t src_rank, std::uint32_t seq,
                  const std::uint8_t* payload, std::size_t payload_len);

// --- Decoding -----------------------------------------------------------

/// Incremental frame reassembler. feed() accepts any byte chunking
/// (short reads included); next() pops completed frames in order.
/// A malformed header or CRC mismatch poisons the stream: next() returns
/// the error from then on (a byte stream with a framing error has no
/// trustworthy resync point, so the link must be torn down).
class FrameDecoder {
 public:
  /// `accept_version`: the negotiated link version every non-kHello/
  /// kHelloAck frame must carry. Hello traffic is validated against the
  /// build's [kWireVersionMin, kWireVersionMax] range instead, because it
  /// arrives before negotiation fixes the link version.
  explicit FrameDecoder(std::uint16_t accept_version = kWireVersionMax)
      : accept_version_(accept_version) {}

  void set_accept_version(std::uint16_t version) { accept_version_ = version; }

  /// Buffers `size` bytes off the link.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Pops the next completed frame into `out`. Returns true when a frame
  /// was produced, false when more bytes are needed. Errors are sticky.
  [[nodiscard]] Result<bool> next(Frame& out);

  /// Bytes buffered but not yet consumed by completed frames.
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Status validate_header(const FrameHeader& header) const;

  std::uint16_t accept_version_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool poisoned_ = false;
  std::string poison_message_;
};

// --- Typed payloads -----------------------------------------------------

/// kHello: everything both sides must agree on before bytes flow.
/// `graph_fingerprint` folds |V|, |E| and the partition node count so a
/// rank pointed at the wrong dataset or cluster shape fails the
/// handshake instead of corrupting values.
struct HelloPayload {
  std::uint16_t version_min = kWireVersionMin;
  std::uint16_t version_max = kWireVersionMax;
  std::uint32_t rank = 0;
  std::uint32_t ranks = 0;
  std::uint64_t graph_fingerprint = 0;

  std::vector<std::uint8_t> encode() const;
  static Result<HelloPayload> decode(const std::vector<std::uint8_t>& bytes);
};

/// kHelloAck: the version the acceptor chose.
struct HelloAckPayload {
  std::uint16_t version = 0;

  std::vector<std::uint8_t> encode() const;
  static Result<HelloAckPayload> decode(
      const std::vector<std::uint8_t>& bytes);
};

/// kEndOfSuperstep: the superstep's barrier, one payload sent alike to
/// every peer after the sender's last BATCH of the superstep. The row
/// tells each receiver what it should have seen (its own cell), so it can
/// tell "superstep complete" from "frames still in flight"; once a rank
/// holds every peer's row it has the whole send matrix and decides halt,
/// convergence and the cluster-wide counters by itself.
struct EndOfSuperstepPayload {
  struct Cell {
    std::uint64_t batch_frames = 0;  // batches flushed to that rank
    std::uint64_t messages = 0;      // VertexMessages inside them
  };
  std::uint64_t superstep = 0;
  /// Bytes and frames the sender framed in this superstep, its
  /// END_OF_SUPERSTEP frames included.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_frames = 0;
  std::vector<Cell> row;  // [destination rank], the sender's own included

  /// Payload bytes of an END_OF_SUPERSTEP in a `ranks`-rank cluster.
  static std::size_t encoded_size(std::uint32_t ranks);
  std::vector<std::uint8_t> encode() const;
  /// Rejects a row whose length disagrees with the payload size or with
  /// `ranks`.
  static Result<EndOfSuperstepPayload> decode(
      const std::vector<std::uint8_t>& bytes, std::uint32_t ranks);
};

/// kValues: the final value sync — a rank's whole slice as (vertex,
/// payload) pairs, sent to rank 0 once after the last superstep, chunked
/// under the payload cap; the last chunk carries final_sync.
struct ValuesPayload {
  std::uint64_t superstep = 0;
  std::uint8_t final_sync = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;

  std::vector<std::uint8_t> encode() const;
  static Result<ValuesPayload> decode(const std::vector<std::uint8_t>& bytes);
};

/// kSumBatch: a dispatcher's combined messages to one peer rank in one
/// superstep: u64 superstep, u64 messages (the logical messages the
/// partials sum, what the sender's END_OF_SUPERSTEP row counts), then
/// {dst u32, sum u64} partials in ascending dst. Each sum is below 2^63,
/// the exact fold's range (core/program.hpp).
struct SumBatchPayload {
  std::uint64_t superstep = 0;
  std::uint64_t messages = 0;
  std::vector<SumPartial> partials;

  static constexpr std::size_t kFixedBytes = 16;
  static constexpr std::size_t kPartialBytes = 12;

  /// Replaces `out` with the encoded payload (the transport reuses one
  /// buffer).
  void encode(std::vector<std::uint8_t>& out) const;
  /// Rejects a payload that is not 16 + 12k bytes, a sum outside the
  /// fold's range, or fewer messages than partials.
  static Result<SumBatchPayload> decode(
      const std::vector<std::uint8_t>& bytes);
};

/// Highest version both ranges share, or InvalidArgument when the ranges
/// are disjoint (the caller turns that into a clean kAbort).
[[nodiscard]] Result<std::uint16_t> negotiate_version(std::uint16_t local_min,
                                        std::uint16_t local_max,
                                        std::uint16_t remote_min,
                                        std::uint16_t remote_max);

}  // namespace gpsa
