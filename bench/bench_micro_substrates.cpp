// Substrate micro-benchmarks (google-benchmark): the building blocks
// whose costs explain the system numbers — mailbox queue throughput,
// slot encoding, CSR file streaming, value-file access, and message
// generation.
#include <benchmark/benchmark.h>

#include <optional>

#include "apps/pagerank.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace gpsa;

void BM_MpscQueuePushPop(benchmark::State& state) {
  MpscQueue<std::uint64_t> queue;
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MpscQueuePushPop);

void BM_SlotEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  Payload p = static_cast<Payload>(rng.next_below(kPayloadMask));
  for (auto _ : state) {
    const Slot s = make_slot(p, (p & 1) != 0);
    benchmark::DoNotOptimize(slot_is_stale(s));
    p = slot_payload(s) ^ 0x55;
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_SlotEncodeDecode);

struct CsrFixture {
  std::optional<ScratchDir> dir;
  std::optional<CsrFileReader> reader;

  static CsrFixture& instance() {
    static CsrFixture f = [] {
      CsrFixture out;
      auto d = ScratchDir::create("microcsr");
      d.status().expect_ok();
      out.dir.emplace(std::move(d).value());
      const EdgeList g = rmat(16, 500'000, 3);
      const std::string path = out.dir->file("g.csr");
      preprocess_edges_to_csr(g, path, true).expect_ok();
      auto r = CsrFileReader::open(path);
      r.status().expect_ok();
      out.reader.emplace(std::move(r).value());
      return out;
    }();
    return f;
  }
};

void BM_CsrFileSequentialScan(benchmark::State& state) {
  const CsrFileReader& reader = *CsrFixture::instance().reader;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::int32_t entry : reader.entries()) {
      sum += static_cast<std::uint32_t>(entry);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(reader.entries().size_bytes()));
}
BENCHMARK(BM_CsrFileSequentialScan);

void BM_CsrFileRecordDecode(benchmark::State& state) {
  const CsrFileReader& reader = *CsrFixture::instance().reader;
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.record(v));
    v = (v + 1) % reader.num_vertices();
  }
}
BENCHMARK(BM_CsrFileRecordDecode);

void BM_ValueFileRandomAccess(benchmark::State& state) {
  static ScratchDir dir = [] {
    auto d = ScratchDir::create("microvf");
    d.status().expect_ok();
    return std::move(d).value();
  }();
  static ValueFile file = [] {
    auto f = ValueFile::create(dir.file("v.values"), 1U << 20, "bench");
    f.status().expect_ok();
    return std::move(f).value();
  }();
  Rng rng(7);
  for (auto _ : state) {
    const VertexId v = static_cast<VertexId>(rng.next_below(1U << 20));
    file.store(v, 0, make_slot(v, false));
    benchmark::DoNotOptimize(file.load(v, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ValueFileRandomAccess);

void BM_PageRankGenMsg(benchmark::State& state) {
  const PageRankProgram program(5);
  (void)program.init(0, 1U << 20);
  const Payload rank = float_to_payload(0.001F);
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.gen_msg(v, v + 1, rank, 16));
    ++v;
  }
}
BENCHMARK(BM_PageRankGenMsg);

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmat(12, 10'000, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_RmatGeneration);

}  // namespace

BENCHMARK_MAIN();
