// Tests for the real network data plane (DESIGN.md §14): the wire-frame
// codec (round trips, fragmentation, corruption and version rejection,
// decoder poisoning), the socket layer over real loopback connections
// (partial writes, short reads, EOF, the poller's prompt stop), and the
// multi-process cluster run — fork+exec'd ranks whose per-node value
// stores and wire traffic must equal the in-process run's (the same rank
// loop over socketpairs) and whose values equal the single-thread
// reference, plus crash-injection runs proving a dead peer surfaces as a
// clean error instead of a hang.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
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
#include "graph/csr.hpp"
#include "graph/generators.hpp"
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
  append_frame(wire, kWireVersionMax, FrameType::kBatch, /*src_rank=*/3,
               /*seq=*/42, payload.data(), payload.size());
  EXPECT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  Frame frame;
  auto produced = decoder.next(frame);
  ASSERT_TRUE(produced.is_ok()) << produced.status().to_string();
  ASSERT_TRUE(produced.value());
  EXPECT_EQ(frame.header.version, kWireVersionMax);
  EXPECT_EQ(frame.header.type, FrameType::kBatch);
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
    append_frame(wire, kWireVersionMax, FrameType::kSyncRequest, 0, seq,
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
    in.batch_frames = 1234;
    in.messages = 567890;
    const auto out = EndOfSuperstepPayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().superstep, in.superstep);
    EXPECT_EQ(out.value().batch_frames, in.batch_frames);
    EXPECT_EQ(out.value().messages, in.messages);
  }
  {
    SyncRequestPayload in;
    in.superstep = 9;
    in.messages_sent = 1;
    in.updates = 2;
    in.wire_bytes = 3;
    in.wire_frames = 4;
    const auto out = SyncRequestPayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().superstep, in.superstep);
    EXPECT_EQ(out.value().messages_sent, in.messages_sent);
    EXPECT_EQ(out.value().updates, in.updates);
    EXPECT_EQ(out.value().wire_bytes, in.wire_bytes);
    EXPECT_EQ(out.value().wire_frames, in.wire_frames);
  }
  {
    SyncReleasePayload in;
    in.superstep = 11;
    in.halt = 1;
    in.converged = 1;
    in.total_messages = 99;
    const auto out = SyncReleasePayload::decode(in.encode());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().superstep, in.superstep);
    EXPECT_EQ(out.value().halt, in.halt);
    EXPECT_EQ(out.value().converged, in.converged);
    EXPECT_EQ(out.value().total_messages, in.total_messages);
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

// A valid frame with one mutation applied, for the rejection tests.
std::vector<std::uint8_t> mutated_frame(std::size_t at, std::uint8_t byte) {
  const std::vector<std::uint8_t> payload = bytes_of("payload");
  std::vector<std::uint8_t> wire;
  append_frame(wire, kWireVersionMax, FrameType::kBatch, 0, 1, payload.data(),
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
  expect_poisoned(mutated_frame(20, 0x5a), "payload CRC mismatch");
  // Corrupt the payload itself rather than the stored CRC.
  expect_poisoned(mutated_frame(kFrameHeaderSize, 0xff), "payload bit flip");
}

TEST(WireFrame, RejectsOversizePayloadLength) {
  // append_frame checks the cap, so craft the header by hand.
  std::vector<std::uint8_t> wire(kFrameHeaderSize);
  encode_frame_header(wire.data(), kWireVersionMax, FrameType::kBatch, 0, 1,
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
  append_frame(wire, /*version=*/kWireVersionMax + 1, FrameType::kBatch, 0, 1,
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
  append_frame(wire, kWireVersionMax, FrameType::kBatch, 1, 9, payload.data(),
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
  auto with_env = [](const char* rank, const char* ranks, const char* sync,
                     auto&& check) {
    ASSERT_EQ(::setenv("GPSA_CLUSTER_RANK", rank, 1), 0);
    ASSERT_EQ(::setenv("GPSA_CLUSTER_RANKS", ranks, 1), 0);
    if (sync != nullptr) {
      ASSERT_EQ(::setenv("GPSA_CLUSTER_VALUE_SYNC", sync, 1), 0);
    }
    check(ClusterNetOptions::from_env());
    ::unsetenv("GPSA_CLUSTER_RANK");
    ::unsetenv("GPSA_CLUSTER_RANKS");
    ::unsetenv("GPSA_CLUSTER_VALUE_SYNC");
  };
  ::unsetenv("GPSA_CLUSTER_RANK");
  ::unsetenv("GPSA_CLUSTER_RANKS");
  EXPECT_FALSE(ClusterNetOptions::from_env().is_ok()) << "missing env";
  with_env("2", "4", nullptr, [](const Result<ClusterNetOptions>& net) {
    ASSERT_TRUE(net.is_ok()) << net.status().to_string();
    EXPECT_EQ(net.value().rank, 2U);
    EXPECT_EQ(net.value().ranks, 4U);
    EXPECT_EQ(net.value().value_sync, ClusterNetOptions::ValueSync::kFinal);
  });
  with_env("0", "2", "superstep", [](const Result<ClusterNetOptions>& net) {
    ASSERT_TRUE(net.is_ok());
    EXPECT_EQ(net.value().value_sync,
              ClusterNetOptions::ValueSync::kSuperstep);
  });
  with_env("4", "4", nullptr, [](const Result<ClusterNetOptions>& net) {
    EXPECT_FALSE(net.is_ok()) << "rank == ranks accepted";
  });
  with_env("0", "2", "sometimes", [](const Result<ClusterNetOptions>& net) {
    EXPECT_FALSE(net.is_ok()) << "bad value-sync mode accepted";
  });
  with_env("nope", "2", nullptr, [](const Result<ClusterNetOptions>& net) {
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
  std::string store_dir;   // "" = in-memory
  std::string summary;     // "" = no summary
  std::string value_sync;  // "" = default (final)
  int timeout_ms = 30000;
  int crash_at = -1;
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
  if (!spec.value_sync.empty()) {
    ::setenv("GPSA_CLUSTER_VALUE_SYNC", spec.value_sync.c_str(), 1);
  }
  if (spec.crash_at >= 0) {
    ::setenv("GPSA_NET_HELPER_CRASH_AT", std::to_string(spec.crash_at).c_str(),
             1);
  }
  ::execl(helper.c_str(), helper.c_str(), static_cast<char*>(nullptr));
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
  ClusterOptions run_options;
  run_options.num_nodes = kRanks;
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

  // Rank 0's view matches the in-process run's, wire traffic included:
  // both carry the same frames, over socketpairs or TCP.
  const auto summary = parse_summary(dir.value().file("rank0.summary"));
  ASSERT_EQ(summary.count("values"), 1U);
  const std::vector<Payload> rank0_values(summary.at("values").begin(),
                                          summary.at("values").end());
  expect_payloads_equal(rank0_values, in_process.value().values);
  EXPECT_EQ(summary.at("supersteps")[0], in_process.value().supersteps);
  EXPECT_EQ(summary.at("total_messages")[0], in_process.value().total_messages);
  EXPECT_EQ(summary.at("converged")[0], in_process.value().converged ? 1U : 0U);
  EXPECT_GT(in_process.value().bytes_on_wire, 0U);
  EXPECT_EQ(summary.at("bytes_on_wire")[0], in_process.value().bytes_on_wire);
  EXPECT_EQ(summary.at("frames_sent")[0], in_process.value().frames_sent);
  EXPECT_EQ(summary.at("superstep_wire"),
            in_process.value().superstep_wire_bytes);

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

TEST(ClusterNetProcess, SuperstepValueSyncTracksTheClusterLive) {
  // Delta-sync mode: rank 0's mirror is fed every superstep instead of
  // once at the end — the final vector must come out the same.
  const std::uint32_t kRanks = 3;
  auto dir = ScratchDir::create("cluster_net_sync");
  ASSERT_TRUE(dir.is_ok());
  const EdgeList graph = rmat(8, 2000, 91);
  const PageRankProgram program(5);
  ClusterOptions run_options;
  run_options.num_nodes = kRanks;
  const auto in_process = ClusterEngine::run(graph, program, run_options);
  ASSERT_TRUE(in_process.is_ok());

  const std::uint16_t port = next_port();
  std::vector<pid_t> pids;
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    RankSpec spec;
    spec.rank = rank;
    spec.ranks = kRanks;
    spec.port = port;
    spec.value_sync = "superstep";
    spec.summary = dir.value().file("rank" + std::to_string(rank) + ".summary");
    pids.push_back(spawn_rank(spec));
  }
  for (std::uint32_t rank = 0; rank < kRanks; ++rank) {
    EXPECT_EQ(wait_exit_code(pids[rank]), 0) << "rank " << rank;
  }
  const auto summary = parse_summary(dir.value().file("rank0.summary"));
  ASSERT_EQ(summary.count("values"), 1U);
  expect_payloads_equal(
      std::vector<Payload>(summary.at("values").begin(),
                           summary.at("values").end()),
      in_process.value().values);
}

TEST(ClusterNetProcess, DeadPeerSurfacesAsErrorNotHang) {
  // Rank 1 _exit()s mid-superstep, after dispatching but before its
  // end-of-superstep marker. The survivors must fail within the network
  // timeout — never hang in the barrier.
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
