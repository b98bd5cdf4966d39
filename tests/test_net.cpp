// Tests for the real network data plane (DESIGN.md §14): the wire-frame
// codec (round trips, fragmentation, corruption and version rejection,
// decoder poisoning), the socket layer over real loopback connections
// (partial writes, short reads, EOF, the poller's prompt stop), and the
// multi-process cluster run — fork+exec'd ranks of 2 workers whose
// per-node value stores, wire traffic and per-rank counters must equal
// the in-process run's (the same rank body over socketpairs) and whose
// values equal the single-thread reference, plus hand-played peers whose
// malformed batches, combined sums and final values must fail the rank
// cleanly, and crash-injection runs proving a dead peer surfaces as a
// clean error instead of a hang.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/reference.hpp"
#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_net.hpp"
#include "core/messages.hpp"
#include "core/program.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/csr_v2.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire_frame.hpp"
#include "platform/file_util.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

// ---------------------------------------------------------------------------
// Wire-frame codec

std::vector<std::uint8_t> bytes_of(const char* text) {
  return std::vector<std::uint8_t>(text, text + std::strlen(text));
}

TEST(WireFrame, HeaderAndPayloadRoundTrip) {
  const std::vector<std::uint8_t> payload = bytes_of("hello, cluster");
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kAbort, /*src_rank=*/3,
               /*seq=*/42, payload.data(), payload.size());
  EXPECT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  Frame frame;
  auto produced = decoder.next(frame);
  ASSERT_TRUE(produced.is_ok()) << produced.status().to_string();
  ASSERT_TRUE(produced.value());
  EXPECT_EQ(frame.header.version, kWireVersionMax);
  EXPECT_EQ(frame.header.type, FrameType::kAbort);
  EXPECT_EQ(frame.header.src_rank, 3);
  EXPECT_EQ(frame.header.seq, 42U);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.buffered_bytes(), 0U);
  // No second frame pending.
  produced = decoder.next(frame);
  ASSERT_TRUE(produced.is_ok());
  EXPECT_FALSE(produced.value());
}

TEST(WireFrame, OneByteFeedsResumeAcrossBoundaries) {
  // A decoder must assemble a frame from arbitrarily fragmented input —
  // the short-read path of a real socket, taken to the extreme.
  const std::vector<std::uint8_t> payload = bytes_of("fragmented");
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kValues, 1, 7,
               payload.data(), payload.size());
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(&wire[i], 1);
    auto produced = decoder.next(frame);
    ASSERT_TRUE(produced.is_ok()) << "byte " << i;
    EXPECT_FALSE(produced.value()) << "frame completed early at byte " << i;
  }
  decoder.feed(&wire[wire.size() - 1], 1);
  auto produced = decoder.next(frame);
  ASSERT_TRUE(produced.is_ok());
  ASSERT_TRUE(produced.value());
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireFrame, BackToBackFramesDecodeInOrder) {
  std::vector<std::uint8_t> wire;
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    const std::vector<std::uint8_t> payload(seq, static_cast<std::uint8_t>(seq));
    append_frame(wire, kWireVersionMax, FrameType::kAbort, 0, seq,
                 payload.data(), payload.size());
  }
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    Frame frame;
    auto produced = decoder.next(frame);
    ASSERT_TRUE(produced.is_ok());
    ASSERT_TRUE(produced.value());
    EXPECT_EQ(frame.header.seq, seq);
    EXPECT_EQ(frame.payload.size(), seq);
  }
}

TEST(WireFrame, ControlPayloadsRoundTrip) {
  {
    HelloPayload in;
    in.version_min = 1;
    in.version_max = 9;
    in.rank = 2;
    in.ranks = 5;
    in.graph_fingerprint = 0xdeadbeefcafef00dull;
    const auto out = HelloPayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().version_min, in.version_min);
    EXPECT_EQ(out.value().version_max, in.version_max);
    EXPECT_EQ(out.value().rank, in.rank);
    EXPECT_EQ(out.value().ranks, in.ranks);
    EXPECT_EQ(out.value().graph_fingerprint, in.graph_fingerprint);
  }
  {
    HelloAckPayload in;
    in.version = 3;
    const auto out = HelloAckPayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().version, 3);
  }
  {
    EndOfSuperstepPayload in;
    in.superstep = 17;
    in.wire_bytes = 4096;
    in.wire_frames = 3;
    in.row = {{1234, 567890}, {0, 0}, {2, 9}};
    const auto out = EndOfSuperstepPayload::decode(in.encode(), 3);
    ASSERT_TRUE(out.is_ok()) << out.status().to_string();
    EXPECT_EQ(in.encode().size(), EndOfSuperstepPayload::encoded_size(3));
    EXPECT_EQ(out.value().superstep, in.superstep);
    EXPECT_EQ(out.value().wire_bytes, in.wire_bytes);
    EXPECT_EQ(out.value().wire_frames, in.wire_frames);
    ASSERT_EQ(out.value().row.size(), in.row.size());
    for (std::size_t i = 0; i < in.row.size(); ++i) {
      EXPECT_EQ(out.value().row[i].batch_frames, in.row[i].batch_frames);
      EXPECT_EQ(out.value().row[i].messages, in.row[i].messages);
    }
  }
  {
    ValuesPayload in;
    in.superstep = 4;
    in.final_sync = 1;
    in.entries = {{0, 10}, {7, 70}, {123456, 0x7fffffff}};
    const auto out = ValuesPayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().superstep, in.superstep);
    EXPECT_EQ(out.value().final_sync, in.final_sync);
    EXPECT_EQ(out.value().entries, in.entries);
  }
}

TEST(WireFrame, EndOfSuperstepRejectsAMisfitRow) {
  EndOfSuperstepPayload in;
  in.superstep = 5;
  in.row.resize(4);
  const std::vector<std::uint8_t> bytes = in.encode();
  ASSERT_TRUE(EndOfSuperstepPayload::decode(bytes, 4).is_ok());
  // A well-formed row of another cluster size.
  auto out = EndOfSuperstepPayload::decode(bytes, 3);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  out = EndOfSuperstepPayload::decode(bytes, 5);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  // A row length that disagrees with the payload size, either way.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 16);
  out = EndOfSuperstepPayload::decode(cut, 4);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  out = EndOfSuperstepPayload::decode(cut, 3);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  out = EndOfSuperstepPayload::decode(padded, 4);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  // Shorter than the fixed fields.
  out = EndOfSuperstepPayload::decode(std::vector<std::uint8_t>(27), 0);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
}

TEST(WireFrame, PartialsRoundTripAndRejectMisfits) {
  // Both kinds of value: a payload (any program's compute fold) and exact
  // sums up to the fold's 2^63 bound.
  PartialsPayload in;
  in.superstep = 9;
  in.messages = 40;
  in.partials = {{3, kPayloadMask},
                 {70, FixedSum{1} << 56},
                 {0xfffffff0U, (FixedSum{1} << 63) - 1}};
  std::vector<std::uint8_t> bytes;
  in.encode(bytes);
  ASSERT_EQ(bytes.size(), PartialsPayload::kFixedBytes +
                              3 * PartialsPayload::kPartialBytes);
  const auto out = PartialsPayload::decode(bytes);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().superstep, in.superstep);
  EXPECT_EQ(out.value().messages, in.messages);
  ASSERT_EQ(out.value().partials.size(), in.partials.size());
  for (std::size_t i = 0; i < in.partials.size(); ++i) {
    EXPECT_EQ(out.value().partials[i].dst, in.partials[i].dst);
    EXPECT_EQ(out.value().partials[i].value, in.partials[i].value);
  }
  auto rejects = [](const PartialsPayload& payload,
                    std::size_t extra_bytes) {
    std::vector<std::uint8_t> wire;
    payload.encode(wire);
    wire.resize(wire.size() + extra_bytes, 0);
    const auto decoded = PartialsPayload::decode(wire);
    return !decoded.is_ok() &&
           decoded.status().code() == StatusCode::kCorruptData;
  };
  EXPECT_TRUE(rejects(in, 5)) << "not 16 + 12k bytes";
  const auto short_payload =
      PartialsPayload::decode(std::vector<std::uint8_t>(15));
  ASSERT_FALSE(short_payload.is_ok());
  EXPECT_EQ(short_payload.status().code(), StatusCode::kCorruptData);
  PartialsPayload few = in;
  few.messages = 2;  // three partials cannot combine two messages
  EXPECT_TRUE(rejects(few, 0));
  PartialsPayload wide = in;
  wide.partials[1].value = FixedSum{1} << 63;  // neither a sum nor a payload
  EXPECT_TRUE(rejects(wide, 0));
}

// A valid frame with one mutation applied, for the rejection tests.
std::vector<std::uint8_t> mutated_frame(std::size_t at, std::uint8_t byte) {
  const std::vector<std::uint8_t> payload = bytes_of("payload");
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kAbort, 0, 1, payload.data(),
               payload.size());
  wire.at(at) = byte;
  return wire;
}

void expect_poisoned(const std::vector<std::uint8_t>& wire,
                     const std::string& label) {
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  Frame frame;
  auto produced = decoder.next(frame);
  ASSERT_FALSE(produced.is_ok()) << label << ": corrupt frame accepted";
  EXPECT_EQ(produced.status().code(), StatusCode::kCorruptData) << label;
  // Poisoning is sticky: a pristine frame after the corruption must not
  // resynchronize the stream (the decoder cannot trust its framing).
  std::vector<std::uint8_t> good;
  append_frame(good, kWireVersionMax, FrameType::kHello, 0, 2, nullptr, 0);
  decoder.feed(good.data(), good.size());
  produced = decoder.next(frame);
  ASSERT_FALSE(produced.is_ok()) << label << ": decoder recovered after poison";
}

TEST(WireFrame, RejectsCorruptionAndStaysPoisoned) {
  expect_poisoned(mutated_frame(0, 0x00), "bad magic");
  expect_poisoned(mutated_frame(10, 0x01), "nonzero reserved");
  expect_poisoned(mutated_frame(6, 0xee), "unknown frame type");
  // Versions 1-3's raw BATCH and version 1's barrier frames are retired,
  // not reused.
  expect_poisoned(mutated_frame(6, 3), "retired frame type 3");
  expect_poisoned(mutated_frame(6, 5), "retired frame type 5");
  expect_poisoned(mutated_frame(6, 6), "retired frame type 6");
  expect_poisoned(mutated_frame(20, 0x5a), "payload CRC mismatch");
  // Corrupt the payload itself rather than the stored CRC.
  expect_poisoned(mutated_frame(kFrameHeaderSize, 0xff), "payload bit flip");
}

TEST(WireFrame, RejectsOversizePayloadLength) {
  // append_frame checks the cap, so craft the header by hand.
  std::vector<std::uint8_t> wire(kFrameHeaderSize);
  encode_frame_header(wire.data(), kWireVersionMax, FrameType::kAbort, 0, 1,
                      kMaxFramePayload + 1, /*payload_crc=*/0);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  Frame frame;
  auto produced = decoder.next(frame);
  ASSERT_FALSE(produced.is_ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kCorruptData);
}

TEST(WireFrame, RejectsVersionOtherThanNegotiated) {
  // Post-handshake frames must carry exactly the negotiated version.
  const std::vector<std::uint8_t> payload = bytes_of("x");
  std::vector<std::uint8_t> wire;
  append_frame(wire, /*version=*/kWireVersionMax + 1, FrameType::kAbort, 0, 1,
               payload.data(), payload.size());
  FrameDecoder decoder;
  decoder.set_accept_version(kWireVersionMax);
  decoder.feed(wire.data(), wire.size());
  Frame frame;
  auto produced = decoder.next(frame);
  ASSERT_FALSE(produced.is_ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kCorruptData);
}

TEST(WireFrame, NegotiateVersionPicksHighestCommon) {
  auto v = negotiate_version(1, 3, 2, 9);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 3);
  v = negotiate_version(2, 9, 1, 3);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 3);
  v = negotiate_version(1, 2, 3, 4);
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFrame, Crc32MatchesReferenceVectors) {
  // Reflected CRC-32 (0xEDB88320), zlib-compatible: the standard "123456789"
  // check value pins the polynomial and bit order.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
}

// ---------------------------------------------------------------------------
// Socket layer over real loopback connections

std::uint16_t next_port() {
  // Distinct base per test process, spaced so concurrent ctest binaries
  // and sequential tests in this one never collide. The block stays below
  // the kernel's ephemeral range (32768 and up by default): a client
  // socket closed moments ago holds its ephemeral port in TIME_WAIT
  // without SO_REUSEADDR, and a listener's bind on that port then fails.
  static std::uint16_t next =
      static_cast<std::uint16_t>(20000 + (::getpid() % 8000));
  next = static_cast<std::uint16_t>(next + 16);
  return next;
}

struct LoopbackPair {
  Socket client;
  Socket server;
};

LoopbackPair make_loopback_pair() {
  const std::uint16_t port = next_port();
  auto listener = tcp_listen(port);
  EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = tcp_connect_retry(port, /*timeout_ms=*/5000);
  EXPECT_TRUE(client.is_ok()) << client.status().to_string();
  auto server = tcp_accept(listener.value(), /*timeout_ms=*/5000);
  EXPECT_TRUE(server.is_ok()) << server.status().to_string();
  LoopbackPair pair;
  pair.client = std::move(client.value());
  pair.server = std::move(server.value());
  return pair;
}

// Reads until the decoder yields a frame (or errors / times out).
Result<Frame> read_one_frame(const Socket& socket, FrameDecoder& decoder,
                             int timeout_ms) {
  Frame frame;
  for (;;) {
    GPSA_ASSIGN_OR_RETURN(const bool ready, decoder.next(frame));
    if (ready) {
      return frame;
    }
    GPSA_ASSIGN_OR_RETURN(const bool readable,
                          wait_readable(socket, timeout_ms));
    if (!readable) {
      return io_error("read_one_frame timed out");
    }
    std::uint8_t buf[4096];
    bool eof = false;
    GPSA_ASSIGN_OR_RETURN(const std::size_t got,
                          recv_nonblocking(socket, buf, sizeof(buf), eof));
    if (got > 0) {
      decoder.feed(buf, got);
    } else if (eof) {
      return failed_precondition("peer closed mid-frame");
    }
  }
}

TEST(NetSocket, LoopbackFrameRoundTrip) {
  LoopbackPair pair = make_loopback_pair();
  const std::vector<std::uint8_t> payload = bytes_of("over the wire");
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kValues, 2, 5, payload.data(),
               payload.size());
  ASSERT_TRUE(send_all(pair.client, wire.data(), wire.size(), 5000).is_ok());
  FrameDecoder decoder;
  auto frame = read_one_frame(pair.server, decoder, 5000);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().header.type, FrameType::kValues);
  EXPECT_EQ(frame.value().header.src_rank, 2);
  EXPECT_EQ(frame.value().payload, payload);
}

TEST(NetSocket, ShortReadsResumeAcrossChunkedSends) {
  // The sender trickles the frame out in small chunks; every recv on the
  // receiver is a short read the decoder must resume from.
  LoopbackPair pair = make_loopback_pair();
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kAbort, 1, 9, payload.data(),
               payload.size());
  std::thread sender([&] {
    for (std::size_t at = 0; at < wire.size(); at += 11) {
      const std::size_t len = std::min<std::size_t>(11, wire.size() - at);
      EXPECT_TRUE(send_all(pair.client, wire.data() + at, len, 5000).is_ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  FrameDecoder decoder;
  auto frame = read_one_frame(pair.server, decoder, 10000);
  sender.join();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().payload, payload);
}

TEST(NetSocket, LargeFrameSurvivesPartialWrites) {
  // 4 MiB payload: far beyond the socket buffers, so send_all must take
  // its partial-write resumption path while the reader drains.
  LoopbackPair pair = make_loopback_pair();
  std::vector<std::uint8_t> payload(4u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 9));
  }
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kValues, 0, 1, payload.data(),
               payload.size());
  Status sent;
  std::thread sender(
      [&] { sent = send_all(pair.client, wire.data(), wire.size(), 30000); });
  FrameDecoder decoder;
  auto frame = read_one_frame(pair.server, decoder, 30000);
  sender.join();
  ASSERT_TRUE(sent.is_ok()) << sent.to_string();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().payload, payload);
}

TEST(NetSocket, RecvReportsEofAfterPeerCloses) {
  LoopbackPair pair = make_loopback_pair();
  pair.client.close_fd();
  auto readable = wait_readable(pair.server, 5000);
  ASSERT_TRUE(readable.is_ok());
  ASSERT_TRUE(readable.value());
  std::uint8_t buf[16];
  bool eof = false;
  auto got = recv_nonblocking(pair.server, buf, sizeof(buf), eof);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), 0U);
  EXPECT_TRUE(eof);
}

TEST(NetSocket, WaitReadableTimesOutOnSilence) {
  LoopbackPair pair = make_loopback_pair();
  auto readable = wait_readable(pair.server, 50);
  ASSERT_TRUE(readable.is_ok());
  EXPECT_FALSE(readable.value());
}

TEST(InboundPoller, StopWakesAnIdlePoller) {
  // No traffic and no EOF: only stop() itself can end the poll, and it
  // must do so at once instead of waiting out a timeout.
  double best_ms = 1e9;
  int errors = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    LoopbackPair pair = make_loopback_pair();
    std::vector<InboundPoller::Peer> peers(1);
    peers[0].rank = 1;
    peers[0].socket = &pair.server;
    InboundPoller poller(
        std::move(peers), [](std::uint32_t, Frame&&) {},
        [&errors](std::uint32_t, Status) { ++errors; });
    ASSERT_TRUE(poller.start().is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto t0 = std::chrono::steady_clock::now();
    poller.stop();
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    best_ms = std::min(best_ms, took.count());
  }
  EXPECT_LT(best_ms, 20.0);
  EXPECT_EQ(errors, 0);
}

// ---------------------------------------------------------------------------
// Cluster-net options

TEST(ClusterNet, FromEnvParsesAndValidates) {
  auto with_env = [](const char* rank, const char* ranks, auto&& check) {
    ASSERT_EQ(::setenv("GPSA_CLUSTER_RANK", rank, 1), 0);
    ASSERT_EQ(::setenv("GPSA_CLUSTER_RANKS", ranks, 1), 0);
    check(ClusterNetOptions::from_env());
    ::unsetenv("GPSA_CLUSTER_RANK");
    ::unsetenv("GPSA_CLUSTER_RANKS");
  };
  ::unsetenv("GPSA_CLUSTER_RANK");
  ::unsetenv("GPSA_CLUSTER_RANKS");
  EXPECT_FALSE(ClusterNetOptions::from_env().is_ok()) << "missing env";
  with_env("2", "4", [](const Result<ClusterNetOptions>& net) {
    ASSERT_TRUE(net.is_ok()) << net.status().to_string();
    EXPECT_EQ(net.value().rank, 2U);
    EXPECT_EQ(net.value().ranks, 4U);
  });
  with_env("4", "4", [](const Result<ClusterNetOptions>& net) {
    EXPECT_FALSE(net.is_ok()) << "rank == ranks accepted";
  });
  with_env("nope", "2", [](const Result<ClusterNetOptions>& net) {
    EXPECT_FALSE(net.is_ok()) << "non-numeric rank accepted";
  });
}

TEST(ClusterNet, SingleRankClusterMatchesReference) {
  // ranks == 1 exercises the whole net-mode control loop with no peers —
  // no sockets, trivial barriers — and must equal the reference run.
  const EdgeList graph = rmat(8, 2000, 91);
  const BfsProgram program(0);
  ClusterNetOptions net;
  net.rank = 0;
  net.ranks = 1;
  const auto result = run_cluster_rank(graph, program, ClusterOptions{}, net);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
  EXPECT_EQ(result.value().total_messages, ref.total_messages);
  EXPECT_TRUE(result.value().converged);
  EXPECT_EQ(result.value().bytes_on_wire, 0U);  // nothing crossed a socket
  EXPECT_EQ(result.value().superstep_wire_bytes.size(),
            result.value().supersteps);
}

TEST(ClusterNet, SumFoldOverflowFailsEveryRank) {
  // Two ranks as threads of this process. Both folds overflow: each rank
  // must return a Status (its own overflow, or the peer's abort) rather
  // than terminate the process.
  const std::uint16_t port = next_port();
  Result<ClusterRunResult> results[2] = {internal_error("not run"),
                                         internal_error("not run")};
  std::vector<std::thread> ranks;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    ranks.emplace_back([&results, rank, port] {
      ClusterNetOptions net;
      net.rank = rank;
      net.ranks = 2;
      net.base_port = port;
      net.timeout_ms = 5000;
      results[rank] = run_cluster_rank(testing::diamond_graph(),
                                       testing::OversizedSumProgram(),
                                       ClusterOptions{}, net);
    });
  }
  for (std::thread& thread : ranks) {
    thread.join();
  }
  bool overflow_seen = false;
  for (const auto& result : results) {
    ASSERT_FALSE(result.is_ok());
    overflow_seen = overflow_seen ||
        result.status().message().find("sum fold") != std::string::npos;
  }
  EXPECT_TRUE(overflow_seen) << results[0].status().to_string() << " / "
                             << results[1].status().to_string();
}

/// Runs rank 0 of a two-rank cluster of `program` on `graph` against a
/// hand-played rank 1, which passes the handshake (the fingerprint is
/// public) and then sends the frames `play` appends to the wire. The
/// socket stays open until rank 0 returns, so rank 0 must end on what it
/// received, not on a lost peer. Returns rank 0's result.
Result<ClusterRunResult> against_played_rank1(
    const EdgeList& graph, const Program& program,
    const std::function<void(std::vector<std::uint8_t>&)>& play) {
  const std::uint16_t port = next_port();
  ClusterNetOptions net;
  net.rank = 0;
  net.ranks = 2;
  net.base_port = port;
  net.timeout_ms = 5000;
  Result<ClusterRunResult> result = internal_error("not run");
  std::thread rank0([&] {
    result = run_cluster_rank(graph, program, ClusterOptions{}, net);
  });
  auto socket = tcp_connect_retry(port, net.timeout_ms);
  EXPECT_TRUE(socket.is_ok()) << socket.status().to_string();
  if (socket.is_ok()) {
    HelloPayload hello;
    hello.rank = 1;
    hello.ranks = 2;
    hello.graph_fingerprint = cluster_graph_fingerprint(
        graph.num_vertices(), graph.num_edges(), 2, program.name(),
        resolve_csr_format(std::nullopt), resolve_csr_order(std::nullopt));
    const std::vector<std::uint8_t> hello_bytes = hello.encode();
    std::vector<std::uint8_t> wire;
    append_frame(wire, kWireVersionMax, FrameType::kHello, 1, 0,
                 hello_bytes.data(), hello_bytes.size());
    play(wire);
    EXPECT_TRUE(
        send_all(socket.value(), wire.data(), wire.size(), net.timeout_ms)
            .is_ok());
  }
  rank0.join();
  return result;
}

void append_payload(std::vector<std::uint8_t>& wire, FrameType type,
                    const std::vector<std::uint8_t>& payload) {
  append_frame(wire, kWireVersionMax, type, 1, 0, payload.data(),
               payload.size());
}

/// One partial of `value` for `dst`, in a PARTIALS payload of superstep 0
/// that claims `messages` messages.
std::vector<std::uint8_t> partials_frame(VertexId dst, std::uint64_t value,
                                         std::uint64_t messages) {
  PartialsPayload partials;
  partials.messages = messages;
  partials.partials.push_back(Partial{dst, value});
  std::vector<std::uint8_t> bytes;
  partials.encode(bytes);
  return bytes;
}

/// An exact sum-fold partial, as PageRank's ranks send.
const std::uint64_t kSumPartial = payload_to_fixed(float_to_payload(0.001F));

void expect_corrupt(const Result<ClusterRunResult>& result,
                    const char* reason) {
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptData)
      << result.status().to_string();
  EXPECT_NE(result.status().message().find(reason), std::string::npos)
      << result.status().to_string();
}

TEST(ClusterNet, PartialsOutsideTheSliceFailsCleanly) {
  // The hand-played rank 1 sends a BFS job's rank 0 one PARTIALS frame
  // addressed to a vertex of rank 1's own slice. Rank 0 must reject it as
  // corrupt data, not write the message into its slice's storage out of
  // bounds.
  const EdgeList graph = rmat(8, 2000, 91);
  const auto result = against_played_rank1(
      graph, BfsProgram(0), [&](std::vector<std::uint8_t>& wire) {
        // Superstep 0, one message to the last vertex: always rank 1's.
        append_payload(wire, FrameType::kPartials,
                       partials_frame(graph.num_vertices() - 1, 1, 1));
      });
  expect_corrupt(result, "outside this rank's slice");
}

TEST(ClusterNet, SumPartialsOutsideTheSliceFailsCleanly) {
  const EdgeList graph = rmat(8, 2000, 91);
  const auto result = against_played_rank1(
      graph, PageRankProgram(5), [&](std::vector<std::uint8_t>& wire) {
        append_payload(wire, FrameType::kPartials,
                       partials_frame(graph.num_vertices() - 1, kSumPartial,
                                      1));
      });
  expect_corrupt(result, "outside this rank's slice");
}

TEST(ClusterNet, NonPayloadPartialFailsCleanly) {
  // A BFS job's partial must be a payload. 2^31 is a valid sum-fold
  // partial on the wire, so the decoder passes it and rank 0's computer
  // must fail the run with a Status, neither truncating the value nor
  // aborting the process.
  const EdgeList graph = rmat(8, 2000, 91);
  const auto result = against_played_rank1(
      graph, BfsProgram(0), [&](std::vector<std::uint8_t>& wire) {
        append_payload(wire, FrameType::kPartials,
                       partials_frame(0, std::uint64_t{1} << 31, 1));
      });
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("not a payload"),
            std::string::npos)
      << result.status().to_string();
}

TEST(ClusterNet, PartialsOfTornSizeFailsCleanly) {
  // A payload that is not 16 + 12k bytes: one partial and five bytes.
  const EdgeList graph = rmat(8, 2000, 91);
  const auto result = against_played_rank1(
      graph, PageRankProgram(5), [&](std::vector<std::uint8_t>& wire) {
        std::vector<std::uint8_t> torn = partials_frame(0, kSumPartial, 1);
        torn.resize(torn.size() + 5, 0);
        append_payload(wire, FrameType::kPartials, torn);
      });
  expect_corrupt(result, "whole partials");
}

TEST(ClusterNet, PartialsCountDisagreeingWithItsRowFailsCleanly) {
  // The PARTIALS frame claims two messages, its sender's END_OF_SUPERSTEP
  // row one: rank 0 must not wait for a message that will never come.
  const EdgeList graph = rmat(8, 2000, 91);
  const auto result = against_played_rank1(
      graph, PageRankProgram(5), [&](std::vector<std::uint8_t>& wire) {
        append_payload(wire, FrameType::kPartials,
                       partials_frame(0, kSumPartial, 2));
        EndOfSuperstepPayload eos;
        eos.row.resize(2);
        eos.row[0].batch_frames = 1;
        eos.row[0].messages = 1;
        append_payload(wire, FrameType::kEndOfSuperstep, eos.encode());
      });
  expect_corrupt(result, "END_OF_SUPERSTEP row");
}

/// Rank 1's vertices in a two-rank cluster of `graph`, in original ids,
/// cut as the rank's plan cuts them.
std::vector<VertexId> rank1_vertices(const EdgeList& graph) {
  auto dir = ScratchDir::create("rank1_slice");
  GPSA_CHECK(dir.is_ok());
  const std::string path = dir.value().file("graph.csr");
  GPSA_CHECK(preprocess_edges_to_csr(graph, path, /*with_degree=*/true,
                                     resolve_csr_format(std::nullopt),
                                     resolve_csr_order(std::nullopt))
                 .is_ok());
  auto csr = CsrFileReader::open(path);
  GPSA_CHECK(csr.is_ok());
  const auto slices = make_intervals(csr.value(), 2);
  GPSA_CHECK(slices.size() == 2);
  const auto perm = csr.value().permutation();
  std::vector<VertexId> out;
  for (VertexId v = slices[1].begin_vertex; v < slices[1].end_vertex; ++v) {
    out.push_back(perm.empty() ? v : perm[v]);
  }
  return out;
}

/// Rank 1's end of a 0-superstep job's final value sync: one VALUES
/// frame with `vertices`.
void append_final_values(std::vector<std::uint8_t>& wire,
                         const std::vector<VertexId>& vertices) {
  ValuesPayload values;
  values.final_sync = 1;
  for (const VertexId v : vertices) {
    values.entries.emplace_back(v, float_to_payload(0.5F));
  }
  append_payload(wire, FrameType::kValues, values.encode());
}

TEST(ClusterNet, FinalValuesMissingAVertexFailCleanly) {
  // Rank 0 fills the result from every rank's VALUES; a vertex nobody
  // sent must not read as a silent zero.
  const EdgeList graph = rmat(8, 2000, 91);
  std::vector<VertexId> mine = rank1_vertices(graph);
  mine.pop_back();
  const auto result = against_played_rank1(
      graph, PageRankProgram(0), [&](std::vector<std::uint8_t>& wire) {
        append_final_values(wire, mine);
      });
  expect_corrupt(result, "covered");
}

TEST(ClusterNet, FinalValuesRepeatingAVertexFailCleanly) {
  const EdgeList graph = rmat(8, 2000, 91);
  std::vector<VertexId> mine = rank1_vertices(graph);
  mine.push_back(mine.front());
  const auto result = against_played_rank1(
      graph, PageRankProgram(0), [&](std::vector<std::uint8_t>& wire) {
        append_final_values(wire, mine);
      });
  expect_corrupt(result, "repeated");
}

// ---------------------------------------------------------------------------
// Multi-process runs (fork + exec of tests/cluster_net_rank.cpp)

std::string helper_path() {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  GPSA_CHECK(len > 0);
  self[len] = '\0';
  std::string path(self);
  path.erase(path.find_last_of('/'));
  return path + "/cluster_net_rank";
}

struct RankSpec {
  std::uint32_t rank = 0;
  std::uint32_t ranks = 3;
  std::uint16_t port = 0;
  std::string program = "pagerank";
  std::string store_dir;  // "" = scratch, removed after the run
  std::string summary;    // "" = no summary
  std::string tmpdir;     // "" = inherited $TMPDIR
  int timeout_ms = 30000;
  int crash_at = -1;
  unsigned workers = 0;   // ClusterOptions::scheduler_workers
};

pid_t spawn_rank(const RankSpec& spec) {
  const std::string helper = helper_path();
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  // Child: environment is the only interface the helper has.
  ::setenv("GPSA_CLUSTER_RANK", std::to_string(spec.rank).c_str(), 1);
  ::setenv("GPSA_CLUSTER_RANKS", std::to_string(spec.ranks).c_str(), 1);
  ::setenv("GPSA_CLUSTER_PORT", std::to_string(spec.port).c_str(), 1);
  ::setenv("GPSA_NET_TIMEOUT_MS", std::to_string(spec.timeout_ms).c_str(), 1);
  ::setenv("GPSA_NET_HELPER_PROGRAM", spec.program.c_str(), 1);
  if (!spec.store_dir.empty()) {
    ::setenv("GPSA_NET_HELPER_STORE", spec.store_dir.c_str(), 1);
  }
  if (!spec.summary.empty()) {
    ::setenv("GPSA_NET_HELPER_SUMMARY", spec.summary.c_str(), 1);
  }
  if (!spec.tmpdir.empty()) {
    ::setenv("TMPDIR", spec.tmpdir.c_str(), 1);
  }
  if (spec.crash_at >= 0) {
    ::setenv("GPSA_NET_HELPER_CRASH_AT", std::to_string(spec.crash_at).c_str(),
             1);
  }
  const std::string workers = std::to_string(spec.workers);
  ::execl(helper.c_str(), helper.c_str(), workers.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(127);  // exec failed
}

/// Exit code of `pid` (or -1 on abnormal termination).
int wait_exit_code(pid_t pid) {
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    return -1;
  }
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

/// Parses the helper's summary file into name -> numbers.
std::map<std::string, std::vector<std::uint64_t>> parse_summary(
    const std::string& path) {
  std::map<std::string, std::vector<std::uint64_t>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    std::uint64_t value = 0;
    while (fields >> value) {
      out[key].push_back(value);
    }
  }
  return out;
}

/// Program name as the helper's GPSA_NET_HELPER_PROGRAM takes it.
class ClusterNetProcessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterNetProcessTest, BitIdenticalToInProcessRun) {
  const std::string program_name = GetParam();
  const std::uint32_t kRanks = 3;
  auto dir = ScratchDir::create("cluster_net");
  ASSERT_TRUE(dir.is_ok());

  // In-process run: same graph, same partition count, ranks as threads.
  const EdgeList graph = rmat(8, 2000, 91);
  std::unique_ptr<Program> program;
  if (program_name == "pagerank") {
    program = std::make_unique<PageRankProgram>(5);
  } else if (program_name == "pagerank_delta") {
    // Must match tests/cluster_net_rank.cpp.
    program = std::make_unique<PageRankDeltaProgram>(100, 0.85F, 1e-4F);
  } else {
    program = std::make_unique<BfsProgram>(0);
  }
  // Multi-worker ranks: frames and stores must still match frame for
  // frame and byte for byte.
  const unsigned kWorkers = 2;
  ClusterOptions run_options;
  run_options.num_nodes = kRanks;
  run_options.scheduler_workers = kWorkers;
  run_options.value_store_dir = dir.value().file("in_process");
  const auto in_process = ClusterEngine::run(graph, *program, run_options);
  ASSERT_TRUE(in_process.is_ok()) << in_process.status().to_string();

  // The real thing: one process per rank over localhost sockets.
  const std::string net_store = dir.value().file("net");
  const std::uint16_t port = next_port();
  std::vector<pid_t> pids;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    RankSpec spec;
    spec.rank = rank;
    spec.ranks = kRanks;
    spec.port = port;
    spec.program = program_name;
    spec.store_dir = net_store;
    spec.summary = dir.value().file("rank" + std::to_string(rank) + ".summary");
    spec.workers = kWorkers;
    pids.push_back(spawn_rank(spec));
  }
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    EXPECT_EQ(wait_exit_code(pids[rank]), 0) << "rank " << rank << " failed";
  }

  // Per-node value stores byte-identical to the in-process run's.
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    const std::string name = "/node" + std::to_string(rank) + ".values";
    const auto run_bytes = read_file(run_options.value_store_dir + name);
    const auto net_bytes = read_file(net_store + name);
    ASSERT_TRUE(run_bytes.is_ok()) << run_bytes.status().to_string();
    ASSERT_TRUE(net_bytes.is_ok()) << net_bytes.status().to_string();
    EXPECT_TRUE(run_bytes.value() == net_bytes.value())
        << "node " << rank << " value store differs from the in-process run";
  }

  // Every rank closes each superstep from the same send matrix, so every
  // rank's loop counters equal the in-process run's. Rank 0 also holds
  // the values and the whole run's wire traffic: both entry points carry
  // the same frames, over socketpairs or TCP.
  const ClusterRunResult& expected = in_process.value();
  EXPECT_GT(expected.bytes_on_wire, 0U);
  EXPECT_GT(expected.remote_messages, 0U);
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    const auto summary = parse_summary(
        dir.value().file("rank" + std::to_string(rank) + ".summary"));
    ASSERT_EQ(summary.count("supersteps"), 1U);
    EXPECT_EQ(summary.at("supersteps")[0], expected.supersteps);
    EXPECT_EQ(summary.at("total_messages")[0], expected.total_messages);
    EXPECT_EQ(summary.at("converged")[0], expected.converged ? 1U : 0U);
    EXPECT_EQ(summary.at("remote_messages")[0], expected.remote_messages);
    EXPECT_EQ(summary.at("remote_batches")[0], expected.remote_batches);
    EXPECT_EQ(summary.at("node_messages_sent"), expected.node_messages_sent);
    EXPECT_EQ(summary.at("node_messages_received"),
              expected.node_messages_received);
    EXPECT_EQ(summary.at("superstep_wire"), expected.superstep_wire_bytes);
  }
  const auto summary = parse_summary(dir.value().file("rank0.summary"));
  ASSERT_EQ(summary.count("values"), 1U);
  const std::vector<Payload> rank0_values(summary.at("values").begin(),
                                          summary.at("values").end());
  expect_payloads_equal(rank0_values, expected.values);
  EXPECT_EQ(summary.at("bytes_on_wire")[0], expected.bytes_on_wire);
  EXPECT_EQ(summary.at("frames_sent")[0], expected.frames_sent);

  // And an oracle that shares no cluster code: the single-thread
  // reference, exact for the sum-fold programs too.
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), *program);
  expect_payloads_equal(rank0_values, ref.values);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, ClusterNetProcessTest,
    ::testing::Values("pagerank", "bfs", "pagerank_delta"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

TEST(ClusterNetProcess, DeadPeerSurfacesAsErrorNotHang) {
  // Rank 1 _exit()s mid-superstep, after dispatching but before its
  // end-of-superstep marker. The survivors must fail within the network
  // timeout — never hang in the barrier. The crashed rank leaves its
  // scratch value file behind, inside a directory this test removes.
  auto dir = ScratchDir::create("cluster_net_dead");
  ASSERT_TRUE(dir.is_ok());
  const std::uint32_t kRanks = 3;
  const std::uint16_t port = next_port();
  const auto started = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    RankSpec spec;
    spec.rank = rank;
    spec.ranks = kRanks;
    spec.port = port;
    spec.program = "bfs";
    spec.timeout_ms = 5000;
    spec.crash_at = rank == 1 ? 1 : -1;
    spec.tmpdir = dir.value().path();
    pids.push_back(spawn_rank(spec));
  }
  EXPECT_EQ(wait_exit_code(pids[1]), 3) << "crash injection did not fire";
  EXPECT_EQ(wait_exit_code(pids[0]), 1) << "rank 0 did not fail cleanly";
  EXPECT_EQ(wait_exit_code(pids[2]), 1) << "rank 2 did not fail cleanly";
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60)
      << "survivors took too long to notice the dead peer";
}

TEST(ClusterNetProcess, RendezvousTimesOutWhenPeersNeverArrive) {
  // A lone rank 0 of a declared 2-rank cluster: nobody ever connects, so
  // the accept deadline must end the run with an error.
  RankSpec spec;
  spec.rank = 0;
  spec.ranks = 2;
  spec.port = next_port();
  spec.timeout_ms = 1500;
  const auto started = std::chrono::steady_clock::now();
  const pid_t pid = spawn_rank(spec);
  EXPECT_EQ(wait_exit_code(pid), 1);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

}  // namespace
}  // namespace gpsa
