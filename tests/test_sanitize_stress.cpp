// Concurrency stress suite for the sanitizer matrix (ASan+UBSan / TSan).
//
// These tests hammer the three protocols whose correctness the rest of the
// engine is built on, in shapes chosen to maximize the interleavings a
// sanitizer can observe rather than to fill wall-clock time:
//
//   1. MpscQueue park/notify: many producers against one blocking consumer,
//      including the Vyukov "disconnected window" (a producer preempted
//      between the tail exchange and the next-pointer publish) — the window
//      where a lost wakeup would deadlock pop();
//   2. the two-column flip of the value file: dispatcher threads consume()
//      flag bits in the dispatch column while computer threads store
//      payloads into the update column and read dispatch-column payloads
//      across the same superstep (§IV.F's one sanctioned cross-role
//      overlap), across several superstep boundaries;
//   3. fork-based crash injection around ValueFile::checkpoint: a child
//      process dies at chosen points inside the checkpoint write sequence
//      and the parent drives the §IV.G recovery path over the wreckage.
//
// Iteration counts shrink under GPSA_SANITIZE_ACTIVE: sanitizer runs pay a
// 5-20x slowdown, and the interleavings per iteration are what matter.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>

#include "actor/actor_system.hpp"
#include "actor/work_stealing_deque.hpp"
#include "util/lockdep.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/edge_list.hpp"
#include "io/block_cache.hpp"
#include "platform/file_util.hpp"
#include "storage/recovery.hpp"
#include "storage/value_file.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

#if defined(GPSA_SANITIZE_ACTIVE)
constexpr int kScaleDivisor = 4;  // sanitizer runs: fewer reps, same shapes
#else
constexpr int kScaleDivisor = 1;
#endif

// --- 1. MpscQueue park/notify ------------------------------------------------

TEST(MpscPark, ManyProducersAgainstBlockingConsumer) {
  // Producers outnumber cores, so pushes are routinely preempted inside the
  // disconnected window; periodic producer naps let the consumer drain the
  // queue and park, so the notify path runs thousands of times instead of
  // once. The consumer validates per-producer FIFO while popping blocking.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 8'000 / kScaleDivisor;
  MpscQueue<std::pair<int, int>> queue;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push({p, i});
        if ((i & 63) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else if ((i & 7) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  // A lost wakeup deadlocks this loop; the ctest timeout turns that into a
  // hard failure, so the park/notify window is machine-checked.
  for (int received = 0; received < kProducers * kPerProducer; ++received) {
    const auto [p, i] = queue.pop();
    ASSERT_EQ(i, next_expected[p]) << "producer " << p;
    ++next_expected[p];
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(queue.approx_empty());
}

TEST(MpscPark, SlowTricklePutsConsumerToSleepEveryItem) {
  // One item at a time with gaps longer than pop()'s spin phase: every
  // delivery takes the full park -> notify -> wake round trip.
  constexpr int kItems = 600 / kScaleDivisor;
  MpscQueue<int> queue;
  std::thread producer([&queue] {
    for (int i = 0; i < kItems; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      queue.push(i);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(queue.pop(), i);
  }
  producer.join();
  EXPECT_TRUE(queue.approx_empty());
}

TEST(MpscPark, BurstsOfProducersRaceASpinningThenParkingConsumer) {
  // Repeated short bursts: each round the consumer empties the queue and
  // parks before the next burst begins, so the sleepers_ > 0 branch of
  // push() and the recheck-after-park branch of pop() both run constantly.
  constexpr int kRounds = 40 / kScaleDivisor + 2;
  constexpr int kProducers = 6;
  constexpr int kPerBurst = 250;
  MpscQueue<std::uint64_t> queue;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> burst;
    burst.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      burst.emplace_back([&queue, p] {
        for (int i = 0; i < kPerBurst; ++i) {
          queue.push((static_cast<std::uint64_t>(p) << 32) | i);
        }
      });
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < kProducers * kPerBurst; ++i) {
      sum += queue.pop() & 0xffff'ffffU;
    }
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kProducers) * kPerBurst *
                       (kPerBurst - 1) / 2);
    for (auto& t : burst) {
      t.join();
    }
    ASSERT_TRUE(queue.approx_empty()) << "round " << round;
  }
}

TEST(MpscPark, MoveOnlyPayloadsUnderContentionFreeCleanly) {
  // Heap-owning payloads across the full producer/consumer handoff: ASan
  // verifies node ownership, LSan verifies the destructor drain of a queue
  // abandoned with items still enqueued.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000 / kScaleDivisor;
  auto queue = std::make_unique<MpscQueue<std::unique_ptr<int>>>();
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue->push(std::make_unique<int>(p * kPerProducer + i));
      }
    });
  }
  // Pop only half; the destructor must reclaim the rest.
  long long seen = 0;
  for (int i = 0; i < kProducers * kPerProducer / 2; ++i) {
    auto v = queue->pop();
    ASSERT_NE(v, nullptr);
    seen += *v;
  }
  EXPECT_GT(seen, 0);
  for (auto& t : producers) {
    t.join();
  }
  queue.reset();  // drains remaining nodes; LSan checks nothing leaks
}

// --- 2. Two-column flip ------------------------------------------------------

// Payload a vertex carries after superstep `s` completes (s == -1 is the
// initial state). Stays inside the 31-bit payload range.
Payload flip_payload(VertexId v, int s) {
  return static_cast<Payload>((static_cast<std::uint64_t>(s + 2) * 977u + v) &
                              kPayloadMask);
}

TEST(TwoColumnFlip, ConsumeFlagsRaceStoresAcrossSuperstepBoundaries) {
  // Faithful thread-level replay of §IV.F: per superstep, dispatcher
  // threads sweep disjoint vertex intervals of the dispatch column —
  // reading payloads and fetch_or-ing the stale bit — while computer
  // threads concurrently store the next payloads into the update column
  // and read dispatch-column payloads of arbitrary vertices (the sanctioned
  // cross-role overlap). The main thread checks the full column state at
  // every superstep barrier, then the roles flip.
  constexpr VertexId kVertices = 2'048;
  constexpr int kSupersteps = 6;
  constexpr unsigned kDispatchers = 2;
  constexpr unsigned kComputers = 2;

  auto dir = ScratchDir::create("flipstress");
  ASSERT_TRUE(dir.is_ok());
  auto file = ValueFile::create(dir.value().file("flip.values"), kVertices,
                                "flipstress");
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  ValueFile& vf = file.value();

  const unsigned d0 = ValueFile::dispatch_column(0);
  for (VertexId v = 0; v < kVertices; ++v) {
    vf.store(v, d0, make_slot(flip_payload(v, -1), /*stale=*/false));
    vf.store(v, 1 - d0, make_slot(0, /*stale=*/true));
  }

  // Threads report protocol violations through a counter; gtest assertions
  // are not thread-safe off the main thread.
  std::atomic<int> violations{0};

  for (int s = 0; s < kSupersteps; ++s) {
    const unsigned dcol = ValueFile::dispatch_column(s);
    const unsigned ucol = ValueFile::update_column(s);
    std::vector<std::thread> workers;
    workers.reserve(kDispatchers + kComputers);
    for (unsigned d = 0; d < kDispatchers; ++d) {
      workers.emplace_back([&, d] {
        const VertexId begin = kVertices * d / kDispatchers;
        const VertexId end = kVertices * (d + 1) / kDispatchers;
        for (VertexId v = begin; v < end; ++v) {
          const Slot prev = vf.consume(v, dcol);
          if (slot_is_stale(prev) ||
              slot_payload(prev) != flip_payload(v, s - 1)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (unsigned c = 0; c < kComputers; ++c) {
      workers.emplace_back([&, c] {
        for (VertexId v = c; v < kVertices; v += kComputers) {
          // Cross-role overlap: payload bits of the dispatch column must be
          // immutable while its flag bit flips under us.
          const VertexId w = (v * 31 + static_cast<VertexId>(s)) % kVertices;
          const Payload seen = slot_payload(vf.load(w, dcol));
          if (seen != flip_payload(w, s - 1)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          vf.store(v, ucol, make_slot(flip_payload(v, s), /*stale=*/false));
        }
      });
    }
    for (auto& t : workers) {
      t.join();
    }
    ASSERT_EQ(violations.load(), 0) << "superstep " << s;
    // Superstep barrier: dispatch column fully consumed, update column
    // holds exactly this superstep's payloads.
    for (VertexId v = 0; v < kVertices; ++v) {
      const Slot consumed = vf.load(v, dcol);
      ASSERT_TRUE(slot_is_stale(consumed)) << "vertex " << v;
      ASSERT_EQ(slot_payload(consumed), flip_payload(v, s - 1))
          << "vertex " << v;
      const Slot updated = vf.load(v, ucol);
      ASSERT_FALSE(slot_is_stale(updated)) << "vertex " << v;
      ASSERT_EQ(slot_payload(updated), flip_payload(v, s)) << "vertex " << v;
    }
    // Manager-style checkpoint between supersteps (msync on the quiescent
    // mapping, header bump included).
    ASSERT_TRUE(vf.checkpoint(static_cast<std::uint64_t>(s) + 1).is_ok());
  }
  EXPECT_EQ(vf.completed_supersteps(), static_cast<std::uint64_t>(kSupersteps));
}

// --- 3. Fork-based crash injection around ValueFile::checkpoint --------------

// Brings `path` to "k supersteps completed, checkpointed": the dispatch
// column of superstep k holds flip_payload(v, k-1) active, the other column
// is stale, and the header records k.
void prepare_checkpointed_file(const std::string& path, VertexId n,
                               std::uint64_t k) {
  auto file = ValueFile::create(path, n, "crashtest");
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  ValueFile& vf = file.value();
  for (std::uint64_t completed = 0; completed <= k; ++completed) {
    const unsigned dcol = ValueFile::dispatch_column(completed);
    for (VertexId v = 0; v < n; ++v) {
      vf.store(v, dcol,
               make_slot(flip_payload(v, static_cast<int>(completed) - 1),
                         /*stale=*/false));
      vf.store(v, 1 - dcol, make_slot(0, /*stale=*/true));
    }
    ASSERT_TRUE(vf.checkpoint(completed).is_ok());
  }
}

// Runs `crash_body` in a forked child against its own mapping of `path`,
// then _exit(0) — the mmap writes land in the shared file, everything else
// (header bump, cleanup) is lost exactly as in a real crash.
void crash_in_child(const std::string& path,
                    void (*crash_body)(ValueFile&, VertexId)) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: no gtest, no exit handlers — mimic an abrupt crash as closely
    // as a test can.
    auto file = ValueFile::open(path);
    if (file.is_ok()) {
      crash_body(file.value(), file.value().num_vertices());
    }
    ::_exit(0);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);
}

void expect_recovered_to(const std::string& path, std::uint64_t k,
                         VertexId n) {
  const auto report = recover_value_file_at(path);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().resume_superstep, k);
  EXPECT_EQ(report.value().valid_column, ValueFile::dispatch_column(k));
  EXPECT_EQ(report.value().vertices_restored, n);

  auto reopened = ValueFile::open(path);
  ASSERT_TRUE(reopened.is_ok());
  ValueFile& vf = reopened.value();
  const unsigned dcol = ValueFile::dispatch_column(k);
  for (VertexId v = 0; v < n; ++v) {
    const Slot active = vf.load(v, dcol);
    ASSERT_FALSE(slot_is_stale(active)) << "vertex " << v;
    ASSERT_EQ(slot_payload(active), flip_payload(v, static_cast<int>(k) - 1))
        << "vertex " << v;
    const Slot stale = vf.load(v, 1 - dcol);
    ASSERT_TRUE(slot_is_stale(stale)) << "vertex " << v;
    ASSERT_EQ(slot_payload(stale), flip_payload(v, static_cast<int>(k) - 1))
        << "vertex " << v;
  }
}

TEST(ForkCrash, SlotFlushCompletesButHeaderBumpIsLost) {
  // The child plays superstep k to completion — full update-column write,
  // full dispatch-flag consumption, slot msync — and dies exactly between
  // the slot flush and the header bump of checkpoint(k+1). Recovery must
  // resume at k from the dispatch column, discarding the orphaned work.
  constexpr VertexId kVertices = 512;
  constexpr std::uint64_t kCompleted = 3;
  auto dir = ScratchDir::create("forkcrash1");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("crash.values");
  prepare_checkpointed_file(path, kVertices, kCompleted);

  crash_in_child(path, [](ValueFile& vf, VertexId n) {
    const unsigned dcol = ValueFile::dispatch_column(kCompleted);
    const unsigned ucol = ValueFile::update_column(kCompleted);
    for (VertexId v = 0; v < n; ++v) {
      vf.store(v, ucol,
               make_slot(flip_payload(v, static_cast<int>(kCompleted)),
                         /*stale=*/false));
      vf.consume(v, dcol);
    }
    (void)vf.sync();  // the checkpoint's slot flush — then death
  });

  expect_recovered_to(path, kCompleted, kVertices);
}

TEST(ForkCrash, TornMidSuperstepWritesAndPartialFlagConsumption) {
  // The child dies mid-superstep: a random subset of update-column slots
  // written (unsynced), a random subset of dispatch flags consumed. §IV.G's
  // claim under test: flag consumption never corrupts dispatch-column
  // payloads, so recovery reconstructs the last checkpoint exactly.
  constexpr VertexId kVertices = 512;
  constexpr std::uint64_t kCompleted = 2;
  auto dir = ScratchDir::create("forkcrash2");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("crash.values");
  prepare_checkpointed_file(path, kVertices, kCompleted);

  crash_in_child(path, [](ValueFile& vf, VertexId n) {
    const unsigned dcol = ValueFile::dispatch_column(kCompleted);
    const unsigned ucol = ValueFile::update_column(kCompleted);
    Rng rng(kCompleted * 7919 + 13);
    for (VertexId v = 0; v < n; ++v) {
      if (rng.next_bool(0.5)) {
        vf.store(v, ucol,
                 make_slot(static_cast<Payload>(rng.next_below(kPayloadMask)),
                           rng.next_bool(0.3)));
      }
      if (rng.next_bool(0.4)) {
        vf.consume(v, dcol);
      }
    }
    // No sync: whatever the kernel flushed is what the "disk" has.
  });

  expect_recovered_to(path, kCompleted, kVertices);
}

TEST(ForkCrash, RepeatedCrashesAtEverySuperstepStillRecover) {
  // Crash-inject after each of several checkpoints in sequence on the same
  // file: recovery must be idempotent and never lose the last completed
  // superstep, whatever the previous crash left behind.
  constexpr VertexId kVertices = 256;
  auto dir = ScratchDir::create("forkcrash3");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = dir.value().file("crash.values");

  for (std::uint64_t k = 0; k <= 4; ++k) {
    prepare_checkpointed_file(path, kVertices, k);
    crash_in_child(path, [](ValueFile& vf, VertexId n) {
      // Consume every other dispatch flag, then die without sync.
      const unsigned dcol =
          ValueFile::dispatch_column(vf.completed_supersteps());
      for (VertexId v = 0; v < n; v += 2) {
        vf.consume(v, dcol);
      }
    });
    expect_recovered_to(path, k, kVertices);
  }
}

// --- 3b. Fork-based crash injection around the CSR preprocessing writer ------
//
// The writer emits the entry file in 64Ki-entry buffered flushes, then the
// .idx offset table. A crash anywhere in that sequence must leave a file
// pair CsrFileReader::open rejects outright — never a silently usable
// half-file — and a clean re-run of preprocessing must fully repair it.

/// Ring-with-chords graph sized to force several entry-buffer flushes
/// (4 entries per vertex with degrees inline; > 3 * 64Ki total).
EdgeList crash_test_graph(VertexId n, VertexId chord) {
  EdgeList edges;
  edges.ensure_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    edges.add_edge(v, (v + 1) % n);
    edges.add_edge(v, (v + chord) % n);
  }
  return edges;
}

/// Forks a child that runs `body` (expected to _exit mid-write via the
/// csr_file crash hooks) and waits for it.
void crash_csr_writer_in_child(const std::function<void()>& body) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    body();
    ::_exit(1);  // the injected crash should have fired before this
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);
}

void expect_csr_matches(const std::string& base, const EdgeList& edges) {
  auto reader = CsrFileReader::open(base);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  const Csr truth = Csr::from_edges(edges);
  ASSERT_EQ(reader.value().num_vertices(), truth.num_vertices());
  ASSERT_EQ(reader.value().num_edges(), truth.num_edges());
  for (VertexId v = 0; v < truth.num_vertices(); v += 97) {
    const auto record = reader.value().record(v);
    const auto nbrs = truth.neighbors(v);
    ASSERT_EQ(record.out_degree, nbrs.size()) << "vertex " << v;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_EQ(static_cast<VertexId>(record.targets[i]), nbrs[i])
          << "vertex " << v << " edge " << i;
    }
  }
}

TEST(ForkCrash, CsrWriterDiesMidEntryFlushes) {
  // Child dies after its second 64Ki-entry flush: the entry file is a
  // durable torn prefix and no index exists. open() must reject, and a
  // clean preprocessing re-run over the wreckage must fully rebuild.
  constexpr VertexId kVertices = 60'000;  // 240K entries -> several flushes
  auto dir = ScratchDir::create("forkcsr1");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("graph.csr");
  const EdgeList edges = crash_test_graph(kVertices, 17);

  crash_csr_writer_in_child([&] {
    set_csr_write_crash_after_flushes(1);
    (void)preprocess_edges_to_csr(edges, base, /*with_degree=*/true);
  });

  ASSERT_TRUE(file_exists(base));
  EXPECT_FALSE(CsrFileReader::open(base).is_ok())
      << "torn entry file must not validate";

  ASSERT_TRUE(
      preprocess_edges_to_csr(edges, base, /*with_degree=*/true).is_ok());
  expect_csr_matches(base, edges);
}

TEST(ForkCrash, CsrWriterDiesBeforeIndexRewrite) {
  // The nastiest torn state: a previous build's .idx survives while the
  // entry file was fully rewritten for a *different* graph before the
  // crash. Sizes and endpoints can still line up, so only the reader's
  // per-record validation (degrees, sentinels) stands between this and a
  // silent half-file.
  constexpr VertexId kVertices = 60'000;
  auto dir = ScratchDir::create("forkcsr2");
  ASSERT_TRUE(dir.is_ok());
  const std::string base = dir.value().file("graph.csr");
  const EdgeList old_edges = crash_test_graph(kVertices, 17);
  ASSERT_TRUE(
      preprocess_edges_to_csr(old_edges, base, /*with_degree=*/true).is_ok());

  // Same vertex/edge totals, different degree distribution: vertex 0 takes
  // both chords of vertex 1, so the stale index's record boundaries no
  // longer match the new entry file.
  EdgeList new_edges = old_edges;
  for (Edge& e : new_edges.edges()) {
    if (e.src == 1) {
      e.src = 0;
    }
  }
  crash_csr_writer_in_child([&] {
    set_csr_write_crash_before_index(true);
    (void)preprocess_edges_to_csr(new_edges, base, /*with_degree=*/true);
  });

  EXPECT_FALSE(CsrFileReader::open(base).is_ok())
      << "stale index over a rewritten entry file must not validate";

  ASSERT_TRUE(
      preprocess_edges_to_csr(new_edges, base, /*with_degree=*/true).is_ok());
  expect_csr_matches(base, new_edges);
}

TEST(ForkCrash, CsrWriterCrashAtEveryFlushBoundaryIsNeverSilent) {
  // Sweep the crash point across every flush boundary (and one past the
  // end, where no crash fires): after each wreck, open() either rejects or
  // — only when the writer actually completed — validates fully. There is
  // no third outcome.
  constexpr VertexId kVertices = 60'000;
  const EdgeList edges = crash_test_graph(kVertices, 29);
  for (int crash_after = 0; crash_after <= 4; ++crash_after) {
    auto dir = ScratchDir::create("forkcsr3");
    ASSERT_TRUE(dir.is_ok());
    const std::string base = dir.value().file("graph.csr");
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      set_csr_write_crash_after_flushes(crash_after);
      const Status status =
          preprocess_edges_to_csr(edges, base, /*with_degree=*/true);
      ::_exit(status.is_ok() ? 0 : 1);
    }
    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);

    auto reader = CsrFileReader::open(base);
    if (reader.is_ok()) {
      expect_csr_matches(base, edges);  // writer completed before the hook
    } else {
      EXPECT_FALSE(file_exists(base + ".idx"))
          << "crash point " << crash_after
          << ": rejected file pair should lack the index";
    }
  }
}

// --- 4. Chase–Lev work-stealing deque (scheduler substrate) ------------------
//
// The scheduler's per-worker run queues (src/actor/work_stealing_deque.hpp)
// have exactly three racy windows, and each test below parks the threads in
// one of them: owner bottom-end pop vs. thief top-end CAS on the final
// element; steal() reading a retired ring mid-grow; and the empty-steal ABA
// window (thief reads a cell, loses the top_ CAS, and must discard). Every
// test proves the global exactly-once property: each pushed value is
// consumed by precisely one thread.

/// Runs `thieves` stealing threads against one owner executing `owner_fn`.
/// Every value in [0, total) must be consumed exactly once across all
/// threads; `claimed` is validated at the end.
void run_deque_race(WorkStealingDeque<std::uint64_t>& deque,
                    std::uint64_t total, int thieves,
                    const std::function<void(std::atomic<std::int64_t>&,
                                             std::vector<std::atomic<int>>&)>&
                        owner_fn) {
  std::atomic<std::int64_t> remaining{static_cast<std::int64_t>(total)};
  std::vector<std::atomic<int>> claimed(total);
  for (auto& c : claimed) {
    c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::thread> thief_threads;
  thief_threads.reserve(static_cast<std::size_t>(thieves));
  for (int t = 0; t < thieves; ++t) {
    thief_threads.emplace_back([&deque, &remaining, &claimed] {
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (auto v = deque.steal()) {
          EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0)
              << "value " << *v << " stolen twice";
          remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    });
  }
  owner_fn(remaining, claimed);
  for (auto& t : thief_threads) {
    t.join();
  }
  ASSERT_EQ(remaining.load(), 0);
  for (std::uint64_t v = 0; v < total; ++v) {
    ASSERT_EQ(claimed[v].load(), 1) << "value " << v;
  }
}

TEST(WorkStealingDequeRace, OwnerPopRacesManyThieves) {
  // Owner alternates push bursts with pop drains while thieves hammer the
  // top end; the hot spot is the final-element CAS arbitration between
  // pop() and steal().
  constexpr std::uint64_t kTotal = 100'000 / kScaleDivisor;
  WorkStealingDeque<std::uint64_t> deque(64, std::size_t{1} << 17);
  run_deque_race(deque, kTotal, 3, [&deque](auto& remaining, auto& claimed) {
    std::uint64_t next = 0;
    while (next < kTotal) {
      // Small bursts keep the deque short, so pop and steal collide on the
      // same few elements instead of working disjoint ends.
      for (int i = 0; i < 4 && next < kTotal; ++i) {
        EXPECT_TRUE(deque.push(next++));
      }
      for (int i = 0; i < 3; ++i) {
        if (auto v = deque.pop()) {
          EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0)
              << "value " << *v << " popped twice";
          remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      if (auto v = deque.pop()) {
        EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      } else {
        std::this_thread::yield();  // thieves are finishing the tail
      }
    }
  });
}

TEST(WorkStealingDequeRace, StealDuringResize) {
  // Tiny initial ring + sustained push pressure: the owner grows the ring
  // many times while thieves hold pointers into retired rings. A steal
  // that reads a stale ring must still return the correct element or lose
  // its CAS — never a torn/wrong value (exactly-once check catches both).
  constexpr std::uint64_t kTotal = 100'000 / kScaleDivisor;
  WorkStealingDeque<std::uint64_t> deque(8, std::size_t{1} << 17);
  run_deque_race(deque, kTotal, 3, [&deque](auto& remaining, auto& claimed) {
    std::uint64_t next = 0;
    while (next < kTotal) {
      // Long bursts against a ring that starts at 8 force repeated growth
      // while the thieves are mid-steal.
      for (int i = 0; i < 512 && next < kTotal; ++i) {
        EXPECT_TRUE(deque.push(next++));
      }
      if (auto v = deque.pop()) {
        EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      if (auto v = deque.pop()) {
        EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      } else {
        std::this_thread::yield();
      }
    }
  });
}

TEST(WorkStealingDequeRace, EmptyStealAbaWindow) {
  // The deque oscillates between empty and one element, so nearly every
  // steal() lands in the ABA window: read a cell, then find top_ moved.
  // A stale read that *wins* its CAS anyway would double-deliver; the
  // claimed[] check would trip.
  constexpr std::uint64_t kTotal = 80'000 / kScaleDivisor;
  WorkStealingDeque<std::uint64_t> deque(8, 64);
  run_deque_race(deque, kTotal, 4, [&deque](auto& remaining, auto& claimed) {
    std::uint64_t next = 0;
    while (next < kTotal) {
      EXPECT_TRUE(deque.push(next++));
      // Immediately contend for the single element we just made visible.
      if (auto v = deque.pop()) {
        EXPECT_EQ(claimed[*v].fetch_add(1, std::memory_order_relaxed), 0)
            << "value " << *v << " taken twice";
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  });
}

// --- 5. Scheduler park/wake under oversubscription ---------------------------

TEST(SchedulerPark, StormOfSingleWakeupsDrains) {
  // Scheduler-level companion to the deque races: isolated enqueues from
  // an external thread against workers that park between messages. Any
  // lost wakeup (parked bit set after the enqueuer's bitmap read) deadlocks
  // the final count and trips the ctest timeout.
  class CountDown final : public Actor<int> {
   public:
    std::atomic<int> seen{0};

   protected:
    void on_message(int) override {
      seen.fetch_add(1, std::memory_order_relaxed);
    }
  };
  constexpr int kMessages = 4'000 / kScaleDivisor;
  ActorSystem system(4, 16);
  auto* actor = system.spawn<CountDown>();
  for (int i = 0; i < kMessages; ++i) {
    actor->send(i);
    if ((i & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  while (actor->seen.load(std::memory_order_relaxed) < kMessages) {
    std::this_thread::yield();
  }
  system.shutdown();
}

TEST(SchedulerPark, IoThreadPoolSubmitStormAgainstTeardown) {
  // Same audit find, I/O flavor: IoThreadPool's destructor and submit()
  // used to notify outside the lock while the destructor path can free
  // the pool as soon as the workers observe stopping_. Submit bursts
  // immediately followed by destruction keep the notify racing teardown.
  constexpr int kRounds = 100 / kScaleDivisor;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran{0};
    {
      IoThreadPool pool(2);
      for (int task = 0; task < 8; ++task) {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }  // destructor drains: all submitted tasks ran before it returns
    ASSERT_EQ(ran.load(std::memory_order_relaxed), 8);
  }
}

// --- 6. Batch-aware steal sizing ---------------------------------------------
//
// try_steal migrates up to half of a victim's backlog per episode, but only
// when the backlog is at least kStealBatchMinDepth deep; shallow victims
// give up exactly one unit. The two tests pin both sides of that contract
// under the same exactly-once discipline as the deque races above, and
// under TSan they additionally race the extras' single-unit CAS path
// against the owner's pop.

/// Leaf unit: spins briefly (so backlogs stay observable), bumps a counter,
/// goes idle.
class StealLeaf final : public Schedulable {
 public:
  explicit StealLeaf(std::atomic<int>& done) : done_(done) {}

  bool execute_batch(std::size_t /*max_messages*/) override {
    volatile int sink = 0;
    for (int spin = 0; spin < 2'000; ++spin) {
      sink = spin;  // volatile store: the spin cannot be optimized away
    }
    static_cast<void>(sink);
    done_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  std::atomic<int>& done_;
};

/// Waits until every unit's slices have fully ended. A unit's done-count
/// bump happens inside execute_batch, but the worker still writes the
/// unit's slice bookkeeping in slice_end() afterwards, so a test may only
/// destroy units it has seen quiescent.
void wait_until_quiescent(const Schedulable& unit,
                          const std::deque<StealLeaf>& leaves) {
  while (!unit.quiescent()) {
    std::this_thread::yield();
  }
  for (const StealLeaf& leaf : leaves) {
    while (!leaf.quiescent()) {
      std::this_thread::yield();
    }
  }
}

/// Flood unit: enqueues every leaf from worker context in one burst, so
/// they land on the executing worker's own deque and build a deep backlog.
/// It then holds its worker hostage with a bounded wait: while it occupies
/// the worker, the deque's owner end cannot drain, so the backlog stays
/// deep until a woken thief actually gets scheduled — without this, a
/// loaded machine can let the owner consume all 384 leaves before any
/// thief wakes, and the test would race the OS scheduler instead of
/// testing the batching policy.
class StealFlooder final : public Schedulable {
 public:
  StealFlooder(Scheduler& scheduler, std::deque<StealLeaf>& leaves,
               std::atomic<int>& done)
      : scheduler_(scheduler),
        leaves_(leaves),
        done_(done),
        extras_baseline_(scheduler.steal_extras_migrated()) {}

  bool execute_batch(std::size_t /*max_messages*/) override {
    for (StealLeaf& leaf : leaves_) {
      scheduler_.enqueue(&leaf);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (scheduler_.steal_extras_migrated() == extras_baseline_ &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    done_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  Scheduler& scheduler_;
  std::deque<StealLeaf>& leaves_;
  std::atomic<int>& done_;
  const std::uint64_t extras_baseline_;
};

TEST(StealSizing, DeepBacklogsMigrateBatchedExtras) {
  // One worker floods its own deque with a few hundred leaves while three
  // idle workers steal. Depth far exceeds the batching threshold, so some
  // steal episode must migrate extras; a couple of rounds absorb the rare
  // schedule where the flooder drains its own deque before any thief
  // arrives.
  constexpr int kLeaves = 384;
  constexpr int kMaxRounds = 10;
  Scheduler scheduler(4, 1);
  for (int round = 0;
       round < kMaxRounds && scheduler.steal_extras_migrated() == 0;
       ++round) {
    std::atomic<int> done{0};
    // deque: Schedulable's slice bookkeeping atomics make units
    // non-copyable, and deque::emplace_back never relocates elements.
    std::deque<StealLeaf> leaves;
    for (int i = 0; i < kLeaves; ++i) {
      leaves.emplace_back(done);
    }
    StealFlooder flooder(scheduler, leaves, done);
    scheduler.enqueue(&flooder);
    while (done.load(std::memory_order_acquire) < kLeaves + 1) {
      std::this_thread::yield();
    }
    wait_until_quiescent(flooder, leaves);
  }
  EXPECT_GT(scheduler.steal_extras_migrated(), 0u);
  EXPECT_GT(scheduler.steals_executed(), 0u);
  scheduler.stop();
}

/// Drip unit: enqueues exactly two leaves per execution, so no deque is
/// ever deeper than two when a thief inspects it.
class StealDripper final : public Schedulable {
 public:
  StealDripper(Scheduler& scheduler, std::deque<StealLeaf>& leaves,
               std::atomic<int>& done)
      : scheduler_(scheduler), leaves_(leaves), done_(done) {}

  bool execute_batch(std::size_t /*max_messages*/) override {
    scheduler_.enqueue(&leaves_[0]);
    scheduler_.enqueue(&leaves_[1]);
    done_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  Scheduler& scheduler_;
  std::deque<StealLeaf>& leaves_;
  std::atomic<int>& done_;
};

TEST(StealSizing, ShallowBacklogsNeverMigrateExtras) {
  // The dripper's deque holds at most its two leaves (the dripper itself
  // is never re-enqueued), which is below kStealBatchMinDepth — so steals
  // may happen, but the extras counter must stay at zero for the whole
  // run. A false batch here is exactly the small-graph steal churn the
  // depth gate exists to prevent.
  constexpr int kRounds = 300 / kScaleDivisor + 10;
  Scheduler scheduler(3, 1);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> done{0};
    std::deque<StealLeaf> leaves;
    leaves.emplace_back(done);
    leaves.emplace_back(done);
    StealDripper dripper(scheduler, leaves, done);
    scheduler.enqueue(&dripper);
    while (done.load(std::memory_order_acquire) < 3) {
      std::this_thread::yield();
    }
    wait_until_quiescent(dripper, leaves);
    ASSERT_EQ(scheduler.steal_extras_migrated(), 0u) << "round " << round;
  }
  scheduler.stop();
}

// --- 7. Job-namespace despawn races ------------------------------------------
//
// GraphService retires a finished job's actor group with
// ActorSystem::despawn_job while other jobs keep executing on the same
// scheduler. The quiescence protocol (scheduler.hpp slice brackets +
// Schedulable::quiescent) must guarantee no worker still holds — or can
// re-acquire — a pointer into the freed group. A protocol hole here is a
// use-after-free that only an interleaving-heavy shape surfaces, so these
// run in the sanitizer matrix (ASan catches the freed access, TSan the
// racing claim).

/// Counts messages into an external atomic (it outlives the actor).
class DespawnCounter final : public Actor<int> {
 public:
  explicit DespawnCounter(std::atomic<int>& hits) : hits_(hits) {}

 protected:
  void on_message(int) override {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int>& hits_;
};

/// Self-perpetuating resident: every delivery re-sends, so its job keeps
/// slices in flight on the shared workers for the whole test.
class DespawnResident final : public Actor<int> {
 public:
  std::atomic<std::uint64_t> pings{0};
  std::atomic<bool> stop{false};

 protected:
  void on_message(int v) override {
    pings.fetch_add(1, std::memory_order_relaxed);
    if (!stop.load(std::memory_order_relaxed)) {
      send(v + 1);
    }
  }
};

TEST(JobDespawn, ChurnAgainstResidentJobFreesNoLiveActor) {
  // Several threads spawn short-lived jobs (each under its own tag, per
  // the one-despawner-per-job contract), flood them, and despawn them
  // while a resident job keeps every worker busy. despawn_job must drain
  // each group — after it returns, every message sent to the group has
  // been counted and the memory is gone.
  constexpr int kChurners = 3;
  constexpr int kIterations = 60 / kScaleDivisor;
  constexpr int kActorsPerJob = 3;
  constexpr int kMessagesPerActor = 40;
  ActorSystem system(4, 16);
  auto* resident = system.spawn_in_job<DespawnResident>(1);
  resident->send(0);

  std::vector<std::thread> churners;
  churners.reserve(kChurners);
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&system, c] {
      for (int iter = 0; iter < kIterations; ++iter) {
        const std::uint32_t job =
            2 + static_cast<std::uint32_t>(c) * kIterations +
            static_cast<std::uint32_t>(iter);
        std::atomic<int> hits{0};
        std::vector<DespawnCounter*> group;
        group.reserve(kActorsPerJob);
        for (int a = 0; a < kActorsPerJob; ++a) {
          group.push_back(system.spawn_in_job<DespawnCounter>(job, hits));
        }
        for (DespawnCounter* actor : group) {
          for (int m = 0; m < kMessagesPerActor; ++m) {
            actor->send(m);
          }
        }
        // No drain barrier: despawn_job itself must wait out the backlog
        // (a non-empty mailbox keeps the actor non-idle, hence
        // non-quiescent).
        system.despawn_job(job);
        EXPECT_EQ(hits.load(std::memory_order_relaxed),
                  kActorsPerJob * kMessagesPerActor)
            << "churner " << c << " iteration " << iter;
      }
    });
  }
  for (auto& t : churners) {
    t.join();
  }

  // The resident job survived the churn and is still making progress.
  const std::uint64_t before = resident->pings.load(std::memory_order_relaxed);
  while (resident->pings.load(std::memory_order_relaxed) == before) {
    std::this_thread::yield();
  }
  resident->stop.store(true, std::memory_order_relaxed);
  system.shutdown();
}

/// Parks inside its slice long enough for the main thread to observably
/// race despawn_job against the in-flight execution.
class SlowSliceActor final : public Actor<int> {
 public:
  SlowSliceActor(std::atomic<bool>& entered, std::atomic<int>& completed)
      : entered_(entered), completed_(completed) {}

 protected:
  void on_message(int) override {
    entered_.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    completed_.fetch_add(1);
  }

 private:
  std::atomic<bool>& entered_;
  std::atomic<int>& completed_;
};

TEST(JobDespawn, DespawnBlocksUntilInFlightSliceCompletes) {
  // The despawner arrives while a worker is provably inside the victim's
  // execute_batch (entered_ set, slice sleep still running). The slice
  // brackets make the group non-quiescent, so despawn_job must block;
  // returning early would free the actor under the worker's feet (the
  // pending completed_ bump would then write through a freed `this`).
  constexpr int kRounds = 20 / kScaleDivisor + 2;
  ActorSystem system(2, 16);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint32_t job = 1 + static_cast<std::uint32_t>(round);
    std::atomic<bool> entered{false};
    std::atomic<int> completed{0};
    auto* actor = system.spawn_in_job<SlowSliceActor>(job, entered, completed);
    actor->send(0);
    while (!entered.load()) {
      std::this_thread::yield();
    }
    system.despawn_job(job);
    ASSERT_EQ(completed.load(), 1) << "round " << round;
  }
  system.shutdown();
}

/// Raw unit whose two slices overlap on two workers. Slice 1 re-enqueues
/// the unit (as a producer's schedule_if_idle may once an actor has stored
/// IDLE) and holds its worker until slice 2 has started elsewhere; slice 2
/// waits until slice 1 has completed and then samples quiescent().
class OverlappingSlicesProbe final : public Schedulable {
 public:
  explicit OverlappingSlicesProbe(Scheduler& scheduler)
      : scheduler_(scheduler) {}

  bool execute_batch(std::size_t /*max_messages*/) override {
    if (started_.fetch_add(1) == 0) {
      scheduler_.enqueue(this);
      while (started_.load() < 2) {
        std::this_thread::yield();
      }
    } else {
      while (slices_completed() < 1) {
        std::this_thread::yield();
      }
      quiescent_in_slice_two_.store(quiescent());
      sampled_.store(true);
    }
    return false;
  }

  bool sampled() const { return sampled_.load(); }
  bool quiescent_in_slice_two() const {
    return quiescent_in_slice_two_.load();
  }

 private:
  Scheduler& scheduler_;
  std::atomic<int> started_{0};
  std::atomic<bool> sampled_{false};
  std::atomic<bool> quiescent_in_slice_two_{false};
};

TEST(JobDespawn, OverlappingSlicesKeepUnitNonQuiescent) {
  // Slice 1's slice_end must not mark the unit quiescent while slice 2 is
  // still running: despawn_job would free the actor under slice 2. Slice
  // 1 can only end after slice 2 started (it waits for that), so the
  // sample is taken with exactly one slice in flight.
  Scheduler scheduler(2, 1);
  OverlappingSlicesProbe probe(scheduler);
  scheduler.enqueue(&probe);
  while (!probe.sampled() || !probe.quiescent()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(probe.quiescent_in_slice_two());
  EXPECT_EQ(probe.slices_completed(), 2u);
  scheduler.stop();
}

// --- Runtime lockdep cross-check (DESIGN.md §15) ------------------------
//
// The static lock-order checker (scripts/gpsa_analyze.py) and the runtime
// lockdep mode validate each other: the analyzer proves the annotated
// tree is cycle-free on paper, lockdep proves the paths that actually
// execute agree. These tests pin the runtime half: a deliberate AB/BA
// inversion must abort naming both locks, and a heavily contended but
// consistently ordered workload must stay quiet while still accreting
// order edges. The TSan CI leg runs the whole suite with GPSA_LOCKDEP=1,
// so every other test in this binary doubles as lockdep true-negative
// coverage there.

TEST(Lockdep, DeliberateInversionAbortsNamingBothLocks) {
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: route stderr into the pipe so the parent can assert on the
    // report, then run the textbook inversion. The second block must
    // abort before _exit is reached.
    ::dup2(pipefd[1], 2);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    lockdep::enable_for_testing(true);
    Mutex alpha{"Test.alpha"};
    Mutex beta{"Test.beta"};
    {
      MutexLock a(alpha);
      MutexLock b(beta);  // order edge Test.alpha -> Test.beta
    }
    {
      MutexLock b(beta);
      MutexLock a(alpha);  // inversion: lockdep aborts here
    }
    ::_exit(0);
  }
  ::close(pipefd[1]);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  std::string report;
  char buf[512];
  for (ssize_t n = 0; (n = ::read(pipefd[0], buf, sizeof(buf))) > 0;) {
    report.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipefd[0]);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child exited normally; lockdep did not fire: " << report;
  EXPECT_EQ(WTERMSIG(wait_status), SIGABRT) << report;
  EXPECT_NE(report.find("Test.alpha"), std::string::npos) << report;
  EXPECT_NE(report.find("Test.beta"), std::string::npos) << report;
  EXPECT_NE(report.find("lock-order"), std::string::npos) << report;
}

TEST(Lockdep, RecursiveAcquisitionAborts) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    ::close(2);  // the report is asserted on in the inversion test
    lockdep::enable_for_testing(true);
    Mutex gate{"Test.gate"};
    gate.lock();
    gate.lock();  // self-deadlock: lockdep aborts instead of hanging
    ::_exit(0);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "recursive lock() neither aborted nor hung";
  EXPECT_EQ(WTERMSIG(wait_status), SIGABRT);
}

TEST(Lockdep, ConsistentOrderUnderContentionStaysQuiet) {
  // True negative: many threads hammer the same two locks in one global
  // order. Lockdep must record the edge once and never fire; under the
  // TSan leg this also races the held-stack bookkeeping itself.
  lockdep::enable_for_testing(true);
  const std::uint64_t edges_before = lockdep::edges_recorded();
  {
    Mutex outer{"Test.outer"};
    Mutex inner{"Test.inner"};
    std::atomic<int> total{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 2000; ++i) {
          MutexLock a(outer);
          MutexLock b(inner);
          total.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(total.load(), 8 * 2000);
  }
  EXPECT_GE(lockdep::edges_recorded(), edges_before + 1);
  lockdep::enable_for_testing(false);
}

}  // namespace
}  // namespace gpsa
