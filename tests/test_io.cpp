// Storage I/O subsystem (src/io/): backend selection and config, stream
// correctness under every supported backend, engine-level bit-identical
// results across backends and readahead settings, readahead counters,
// and the cluster's file-backed per-node value stores.
//
// The cross-backend equality tests are the contract the CI io-backends
// leg leans on: PageRank/CC/BFS payloads must be *bit-identical* no
// matter which backend streamed the CSR, because backends only change
// how bytes become resident, never which bytes the dispatcher sees.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "cluster/cluster_engine.hpp"
#include "core/engine.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "io/io_backend.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_payloads_equal;

std::vector<IoBackendKind> supported_backends() {
  std::vector<IoBackendKind> kinds = {IoBackendKind::kMmap,
                                      IoBackendKind::kPread};
  if (IoBackend::supported(IoBackendKind::kUring)) {
    kinds.push_back(IoBackendKind::kUring);
  }
  return kinds;
}

// --- Config resolution -------------------------------------------------------

TEST(IoConfig, BackendNamesRoundTripThroughTheEnvironment) {
  for (const auto kind : {IoBackendKind::kMmap, IoBackendKind::kPread,
                          IoBackendKind::kUring}) {
    testing::ScopedEnv env("GPSA_IO_BACKEND", io_backend_name(kind));
    const auto config = IoOptions{}.resolve();
    ASSERT_TRUE(config.is_ok()) << config.status().to_string();
    // An unavailable uring resolves to pread (the clean-fallback contract).
    EXPECT_EQ(config.value().backend, IoBackend::supported(kind)
                                          ? kind
                                          : IoBackendKind::kPread);
  }
  testing::ScopedEnv env("GPSA_IO_BACKEND", "sendfile");
  EXPECT_FALSE(IoOptions{}.resolve().is_ok());
}

TEST(IoConfig, ExplicitOptionsOverrideDefaults) {
  IoOptions opts;
  opts.backend = IoBackendKind::kPread;
  opts.readahead_bytes = 1u << 20;
  opts.drop_behind = false;
  opts.block_bytes = 64u << 10;
  opts.io_threads = 3;
  const auto config = opts.resolve();
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().backend, IoBackendKind::kPread);
  EXPECT_EQ(config.value().readahead_bytes, 1u << 20);
  EXPECT_FALSE(config.value().drop_behind);
  EXPECT_EQ(config.value().block_bytes, 64u << 10);
  EXPECT_EQ(config.value().io_threads, 3u);
}

TEST(IoConfig, RejectsDegenerateValues) {
  IoOptions opts;
  opts.block_bytes = 512;  // below the 4 KiB floor
  EXPECT_FALSE(opts.resolve().is_ok());
  IoOptions threads;
  threads.io_threads = 0;
  EXPECT_FALSE(threads.resolve().is_ok());
}

TEST(IoConfig, UringRequestNeverFailsResolution) {
  // An explicit uring request resolves to uring where the kernel allows
  // it and falls back to pread (with a logged warning) otherwise — it
  // must never fail the run.
  IoOptions opts;
  opts.backend = IoBackendKind::kUring;
  const auto config = opts.resolve();
  ASSERT_TRUE(config.is_ok());
  if (IoBackend::supported(IoBackendKind::kUring)) {
    EXPECT_EQ(config.value().backend, IoBackendKind::kUring);
  } else {
    EXPECT_EQ(config.value().backend, IoBackendKind::kPread);
  }
}

TEST(IoConfig, CacheBlocksCoversWindowPlusPin) {
  IoConfig config;
  config.readahead_bytes = 8u << 20;
  config.block_bytes = 256u << 10;
  EXPECT_EQ(config.cache_blocks(), (8u << 20) / (256u << 10) + 2);
  config.readahead_bytes = 0;  // readahead off still leaves fetch slack
  EXPECT_GE(config.cache_blocks(), 3u);
}

// --- Stream contract, all backends -------------------------------------------

class IoStreamAllBackends : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = ScratchDir::create("io_stream");
    ASSERT_TRUE(dir.is_ok());
    dir_ = std::move(dir).value();
    // ~1.3 MiB of deterministic bytes: several 64 KiB blocks, prime-ish
    // length so the last block is partial.
    payload_.resize((1u << 20) + 300'041);
    Rng rng(7);
    for (auto& b : payload_) {
      b = static_cast<std::byte>(rng.next_u64() & 0xff);
    }
    path_ = dir_.file("stream.bin");
    ASSERT_TRUE(write_file(path_, payload_.data(), payload_.size()).ok());
  }

  std::unique_ptr<IoBackend> make_backend(IoBackendKind kind) {
    IoOptions opts;
    opts.backend = kind;
    opts.block_bytes = 64u << 10;  // small blocks: more cache churn
    opts.readahead_bytes = 256u << 10;
    auto config = opts.resolve();
    EXPECT_TRUE(config.is_ok());
    auto backend = IoBackend::create(config.value());
    EXPECT_TRUE(backend.is_ok());
    return std::move(backend).value();
  }

  void expect_range(IoReadStream& stream, std::uint64_t offset,
                    std::size_t length) {
    const std::byte* got = stream.fetch(offset, length);
    ASSERT_NE(got, nullptr) << stream.status().to_string();
    ASSERT_EQ(std::memcmp(got, payload_.data() + offset, length), 0)
        << "offset " << offset << " length " << length;
  }

  ScratchDir dir_;
  std::string path_;
  std::vector<std::byte> payload_;
};

TEST_F(IoStreamAllBackends, SequentialScanMatchesFile) {
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto backend = make_backend(kind);
    auto stream = backend->open_stream(path_);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_EQ(stream.value()->size(), payload_.size());
    // Odd-sized chunks so fetches straddle block boundaries constantly.
    constexpr std::size_t kChunk = 40'961;
    for (std::uint64_t off = 0; off < payload_.size(); off += kChunk) {
      const std::size_t len =
          std::min<std::uint64_t>(kChunk, payload_.size() - off);
      expect_range(*stream.value(), off, len);
      stream.value()->drop_behind(off);
    }
  }
}

TEST_F(IoStreamAllBackends, WillNeedThenFetchHitsWindow) {
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto backend = make_backend(kind);
    auto stream = backend->open_stream(path_);
    ASSERT_TRUE(stream.is_ok());
    stream.value()->will_need(0, 256u << 10);
    for (std::uint64_t off = 0; off < (256u << 10); off += (32u << 10)) {
      expect_range(*stream.value(), off, 32u << 10);
    }
    const PrefetchCounters counters = stream.value()->counters();
    EXPECT_GT(counters.window_hits, 0u);
  }
}

TEST_F(IoStreamAllBackends, LargeFetchBypassesCache) {
  // A range wider than the block cache must still come back contiguous
  // and correct (the backends assemble or bypass internally).
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto backend = make_backend(kind);
    auto stream = backend->open_stream(path_);
    ASSERT_TRUE(stream.is_ok());
    expect_range(*stream.value(), 12'345, 1u << 20);
    // And the stream still serves ordinary reads afterwards.
    expect_range(*stream.value(), 0, 4096);
    expect_range(*stream.value(), payload_.size() - 17, 17);
  }
}

TEST_F(IoStreamAllBackends, RandomAccessMatchesFile) {
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto backend = make_backend(kind);
    auto stream = backend->open_stream(path_);
    ASSERT_TRUE(stream.is_ok());
    Rng rng(kind == IoBackendKind::kMmap ? 1 : 2);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t off = rng.next_u64() % (payload_.size() - 1);
      const std::size_t len = 1 + rng.next_u64() % std::min<std::uint64_t>(
                                      100'000, payload_.size() - off);
      expect_range(*stream.value(), off, len);
    }
  }
}

TEST_F(IoStreamAllBackends, MissingFileFailsOpen) {
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto backend = make_backend(kind);
    EXPECT_FALSE(backend->open_stream(dir_.file("absent.bin")).is_ok());
  }
}

// --- Engine equality across backends -----------------------------------------

EngineOptions engine_options(IoBackendKind backend, std::size_t readahead) {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.max_supersteps = 5;
  eo.io.backend = backend;
  eo.io.readahead_bytes = readahead;
  // Small blocks so the pread/uring caches actually evict on the test
  // graph instead of holding the whole file.
  eo.io.block_bytes = 16u << 10;
  return eo;
}

class IoEngineEquality : public ::testing::Test {
 protected:
  static EdgeList test_graph() {
    // Big enough that each dispatcher streams multiple blocks.
    return generate_paper_graph(PaperGraph::kGoogle, 0.05, 11);
  }
};

TEST_F(IoEngineEquality, PageRankBitIdenticalAcrossBackends) {
  const EdgeList graph = test_graph();
  const PageRankProgram program(4);
  const auto baseline =
      Engine::run(graph, program, engine_options(IoBackendKind::kMmap, 0));
  ASSERT_TRUE(baseline.is_ok());
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    const auto result =
        Engine::run(graph, program, engine_options(kind, 4u << 20));
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().io_backend, kind);
    EXPECT_EQ(result.value().supersteps, baseline.value().supersteps);
    EXPECT_EQ(result.value().total_messages,
              baseline.value().total_messages);
    // Bit-identical, not approximately equal: the backend must not
    // change a single payload bit.
    expect_payloads_equal(result.value().values, baseline.value().values);
  }
}

TEST_F(IoEngineEquality, BfsAndCcIdenticalAcrossBackends) {
  const EdgeList graph = test_graph();
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  for (const Program* program :
       std::initializer_list<const Program*>{&bfs, &cc}) {
    const auto baseline =
        Engine::run(graph, *program, engine_options(IoBackendKind::kMmap, 0));
    ASSERT_TRUE(baseline.is_ok());
    for (const IoBackendKind kind : supported_backends()) {
      SCOPED_TRACE(io_backend_name(kind));
      const auto result =
          Engine::run(graph, *program, engine_options(kind, 4u << 20));
      ASSERT_TRUE(result.is_ok());
      expect_payloads_equal(result.value().values, baseline.value().values);
    }
  }
}

TEST_F(IoEngineEquality, ReadaheadAndDropBehindDoNotChangeResults) {
  const EdgeList graph = test_graph();
  const PageRankProgram program(4);
  const auto baseline =
      Engine::run(graph, program, engine_options(IoBackendKind::kPread, 0));
  ASSERT_TRUE(baseline.is_ok());
  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    for (const std::size_t readahead :
         {std::size_t{64} << 10, std::size_t{8} << 20}) {
      for (const bool drop : {false, true}) {
        EngineOptions eo = engine_options(kind, readahead);
        eo.io.drop_behind = drop;
        const auto result = Engine::run(graph, program, eo);
        ASSERT_TRUE(result.is_ok());
        expect_payloads_equal(result.value().values, baseline.value().values);
        // The summed hit rate the engine surfaces is a well-formed ratio.
        EXPECT_GE(result.value().readahead_hit_rate, 0.0);
        EXPECT_LE(result.value().readahead_hit_rate, 1.0);
      }
    }
  }
}

TEST_F(IoEngineEquality, PrefetchCountersReflectReadahead) {
  const EdgeList graph = test_graph();
  const PageRankProgram program(3);
  const auto off =
      Engine::run(graph, program, engine_options(IoBackendKind::kMmap, 0));
  ASSERT_TRUE(off.is_ok());
  EXPECT_EQ(off.value().prefetch.bytes_prefetched, 0u);
  const auto on = Engine::run(graph, program,
                              engine_options(IoBackendKind::kMmap, 4u << 20));
  ASSERT_TRUE(on.is_ok());
  EXPECT_GT(on.value().prefetch.bytes_prefetched, 0u);
  ASSERT_EQ(on.value().dispatcher_busy_seconds.size(), 2u);
  for (const double busy : on.value().dispatcher_busy_seconds) {
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy, on.value().elapsed_seconds);
  }
}

// --- Cluster per-node value stores -------------------------------------------

TEST(IoCluster, FileBackedValueStoresMatchInMemory) {
  const EdgeList graph = generate_paper_graph(PaperGraph::kGoogle, 0.03, 3);
  const PageRankProgram program(4);
  ClusterOptions in_memory;
  in_memory.num_nodes = 3;
  in_memory.max_supersteps = 4;
  const auto baseline = ClusterEngine::run(graph, program, in_memory);
  ASSERT_TRUE(baseline.is_ok());

  for (const IoBackendKind kind : supported_backends()) {
    SCOPED_TRACE(io_backend_name(kind));
    auto dir = ScratchDir::create("io_cluster");
    ASSERT_TRUE(dir.is_ok());
    ClusterOptions on_disk = in_memory;
    on_disk.value_store_dir = dir.value().file("stores");
    on_disk.io.backend = kind;
    const auto result = ClusterEngine::run(graph, program, on_disk);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().supersteps, baseline.value().supersteps);
    EXPECT_EQ(result.value().total_messages,
              baseline.value().total_messages);
    expect_payloads_equal(result.value().values, baseline.value().values);
    // The per-node files really exist on disk.
    for (unsigned node = 0; node < in_memory.num_nodes; ++node) {
      EXPECT_TRUE(file_exists(on_disk.value_store_dir + "/node" +
                              std::to_string(node) + ".values"))
          << "node " << node;
    }
  }
}

}  // namespace
}  // namespace gpsa
