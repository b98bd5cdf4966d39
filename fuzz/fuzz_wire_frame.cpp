// libFuzzer harness for the cluster wire-frame codec (src/net/wire_frame),
// the first *network*-untrusted input grammar: every byte a peer sends
// crosses FrameDecoder before anything else trusts it. The first input
// byte selects the mode:
//
//   even — raw decode robustness: the remaining bytes stream through a
//     FrameDecoder in input-derived chunk sizes. The decoder must never
//     crash, never hand out a frame with an out-of-bounds payload, and —
//     the stickiness oracle — never produce another frame after it
//     poisoned itself.
//
//   odd — encode->decode differential round trip: the input picks a frame
//     type, version skew, seq, and payload; append_frame serializes it
//     and the decoder must reproduce header and payload *exactly* (or,
//     when the version was skewed away from the negotiated one, reject).
//     Typed payloads that parse (HELLO, END_OF_SUPERSTEP, VALUES,
//     SUM_BATCH) are re-encoded and parsed again:
//     decode(encode(decode(x))) must be the identity.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "net/wire_frame.hpp"
#include "util/check.hpp"

namespace {

using gpsa::Frame;
using gpsa::FrameDecoder;
using gpsa::FrameType;

void fuzz_raw_decode(const std::uint8_t* data, std::size_t size) {
  FrameDecoder decoder;
  Frame frame;
  bool poisoned = false;
  std::size_t at = 0;
  // Chunk sizes come from the input itself so the fuzzer controls the
  // fragmentation pattern (1-byte trickles to whole-buffer feeds).
  std::size_t chunk_seed = 1;
  while (at < size) {
    const std::size_t chunk =
        1 + (data[at] + chunk_seed++) % std::min<std::size_t>(64, size - at);
    decoder.feed(data + at, std::min(chunk, size - at));
    at += chunk;
    for (;;) {
      auto produced = decoder.next(frame);
      if (!produced.is_ok()) {
        poisoned = true;
        break;
      }
      if (!produced.value()) {
        break;
      }
      // A decoded frame obeys the framing invariants.
      GPSA_CHECK(!poisoned);  // sticky poisoning must not un-stick
      GPSA_CHECK(frame.payload.size() <= gpsa::kMaxFramePayload);
      GPSA_CHECK(frame.payload.size() == frame.header.payload_len);
      GPSA_CHECK(gpsa::frame_type_known(
          static_cast<std::uint16_t>(frame.header.type)));
    }
    if (poisoned) {
      // Stickiness: no amount of further (even pristine) input may yield
      // another frame or a success from next().
      std::vector<std::uint8_t> good;
      gpsa::append_frame(good, gpsa::kWireVersionMax, FrameType::kHello, 0, 0,
                         nullptr, 0);
      decoder.feed(good.data(), good.size());
      GPSA_CHECK(!decoder.next(frame).is_ok());
      return;
    }
  }
}

void roundtrip_control_payload(const Frame& frame) {
  switch (frame.header.type) {
    case FrameType::kHello: {
      auto pl = gpsa::HelloPayload::decode(frame.payload);
      if (pl.is_ok()) {
        auto again = gpsa::HelloPayload::decode(pl.value().encode());
        GPSA_CHECK(again.is_ok());
        GPSA_CHECK(again.value().version_min == pl.value().version_min);
        GPSA_CHECK(again.value().version_max == pl.value().version_max);
        GPSA_CHECK(again.value().rank == pl.value().rank);
        GPSA_CHECK(again.value().ranks == pl.value().ranks);
        GPSA_CHECK(again.value().graph_fingerprint ==
                   pl.value().graph_fingerprint);
      }
      break;
    }
    case FrameType::kEndOfSuperstep: {
      // The payload's own row length stands in for the cluster size; a
      // row of any other length must not decode.
      const std::uint32_t ranks =
          frame.payload.size() >= 28 ? gpsa::get_u32(frame.payload.data() + 24)
                                     : 0;
      auto pl = gpsa::EndOfSuperstepPayload::decode(frame.payload, ranks);
      if (pl.is_ok()) {
        GPSA_CHECK(pl.value().encode() == frame.payload);
        GPSA_CHECK(
            !gpsa::EndOfSuperstepPayload::decode(frame.payload, ranks + 1)
                 .is_ok());
      }
      break;
    }
    case FrameType::kValues: {
      auto pl = gpsa::ValuesPayload::decode(frame.payload);
      if (pl.is_ok()) {
        GPSA_CHECK(pl.value().encode() == frame.payload);
      }
      break;
    }
    case FrameType::kSumBatch: {
      auto pl = gpsa::SumBatchPayload::decode(frame.payload);
      if (pl.is_ok()) {
        std::vector<std::uint8_t> bytes;
        pl.value().encode(bytes);
        GPSA_CHECK(bytes == frame.payload);
        auto again = gpsa::SumBatchPayload::decode(bytes);
        GPSA_CHECK(again.is_ok());
        GPSA_CHECK(again.value().superstep == pl.value().superstep);
        GPSA_CHECK(again.value().messages == pl.value().messages);
        GPSA_CHECK(again.value().messages >= again.value().partials.size());
        GPSA_CHECK(again.value().partials.size() ==
                   pl.value().partials.size());
        for (std::size_t i = 0; i < again.value().partials.size(); ++i) {
          const gpsa::SumPartial& p = again.value().partials[i];
          GPSA_CHECK(p.dst == pl.value().partials[i].dst);
          GPSA_CHECK(p.sum == pl.value().partials[i].sum);
          GPSA_CHECK((p.sum >> 63) == 0);  // inside the exact fold's range
        }
      }
      break;
    }
    default:
      break;
  }
}

void fuzz_encode_decode(const std::uint8_t* data, std::size_t size) {
  if (size < 8) {
    return;
  }
  static constexpr FrameType kTypes[] = {
      FrameType::kHello,          FrameType::kHelloAck, FrameType::kBatch,
      FrameType::kEndOfSuperstep, FrameType::kValues,   FrameType::kAbort,
      FrameType::kSumBatch,
  };
  const FrameType type = kTypes[data[0] % (sizeof(kTypes) / sizeof(kTypes[0]))];
  const bool skew_version = (data[1] & 1) != 0;
  const std::uint16_t version =
      skew_version ? gpsa::kWireVersionMax + 1 + (data[1] >> 1)
                   : gpsa::kWireVersionMax;
  const std::uint16_t src_rank = data[2];
  const std::uint32_t seq = gpsa::get_u32(data + 3);
  const std::uint8_t* payload = data + 8;
  const std::size_t payload_len = size - 8;

  std::vector<std::uint8_t> wire;
  gpsa::append_frame(wire, version, type, src_rank, seq, payload, payload_len);

  FrameDecoder decoder;  // negotiated version: kWireVersionMax
  // Split the feed at an input-derived point to cover the resume path.
  const std::size_t split = gpsa::get_u16(data + 1) % (wire.size() + 1);
  decoder.feed(wire.data(), split);
  Frame frame;
  auto early = decoder.next(frame);
  if (!early.is_ok()) {
    // Only a skewed version may be rejected, and only once the header is
    // fully buffered.
    GPSA_CHECK(skew_version && split >= gpsa::kFrameHeaderSize);
    return;
  }
  GPSA_CHECK(!early.value() || split == wire.size());
  if (!early.value()) {
    decoder.feed(wire.data() + split, wire.size() - split);
  }
  auto produced = early.value() ? std::move(early) : decoder.next(frame);
  if (skew_version) {
    // A frame not carrying the negotiated version must be rejected.
    GPSA_CHECK(!produced.is_ok());
    return;
  }
  GPSA_CHECK(produced.is_ok() && produced.value());
  GPSA_CHECK(frame.header.version == version);
  GPSA_CHECK(frame.header.type == type);
  GPSA_CHECK(frame.header.src_rank == src_rank);
  GPSA_CHECK(frame.header.seq == seq);
  GPSA_CHECK(frame.payload.size() == payload_len);
  GPSA_CHECK(payload_len == 0 ||
             std::memcmp(frame.payload.data(), payload, payload_len) == 0);
  roundtrip_control_payload(frame);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) {
    return 0;
  }
  if ((data[0] & 1) == 0) {
    fuzz_raw_decode(data + 1, size - 1);
  } else {
    fuzz_encode_decode(data + 1, size - 1);
  }
  return 0;
}
