#include "baselines/graphchi/psw_engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "baselines/graphchi/shard.hpp"
#include "platform/file_util.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"

namespace gpsa {

Result<BaselineResult> PswEngine::run(const EdgeList& graph,
                                      const Program& program,
                                      const BaselineOptions& options) try {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("PswEngine: empty graph");
  }
  const unsigned threads =
      options.threads != 0 ? options.threads : default_worker_count();
  const unsigned partitions = options.partitions != 0
                                  ? options.partitions
                                  : default_partition_count(n);

  std::optional<ScratchDir> scratch;
  std::string dir = options.work_dir;
  if (dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("psw"));
    dir = s.path();
    scratch.emplace(std::move(s));
  }

  BaselineResult out;
  WallTimer preprocess_timer;
  GPSA_ASSIGN_OR_RETURN(ShardSet shards,
                        ShardSet::build(graph, partitions, dir));
  const unsigned parts = shards.num_partitions();

  // Out-degrees feed gen_msg (GraphChi vertices know their degrees).
  std::vector<std::uint32_t> out_degree(n, 0);
  for (const Edge& e : graph.edges()) {
    ++out_degree[e.src];
  }
  out.preprocess_seconds = preprocess_timer.elapsed_seconds();

  std::vector<Payload> values(n);
  std::vector<char> scheduled(n, 0);
  std::vector<char> next_scheduled(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const Program::InitialState st = program.init(v, n);
    values[v] = st.value;
    scheduled[v] = st.active ? 1 : 0;
  }

  std::uint64_t budget = program.max_supersteps();
  if (options.max_supersteps != 0) {
    budget = std::min(budget, options.max_supersteps);
  }

  WallTimer total_timer;
  // Per-shard count of freshly stamped edges, for gather-side skipping
  // (GraphChi's selective scheduling skips intervals with no work), plus
  // block-granular dirty flags: GraphChi performs shard I/O in blocks, so
  // both the write-back and the gather re-read touch only blocks that
  // actually contain fresh edges. Blocks are kBlockEdges edges.
  constexpr std::uint64_t kBlockEdges = 4096;
  constexpr std::uint64_t kBlockBytes = kBlockEdges * 8;  // modeled width
  std::vector<std::atomic<std::uint64_t>> stamped_in_shard(parts);
  std::vector<std::vector<std::atomic<std::uint8_t>>> block_flags(parts);
  for (unsigned q = 0; q < parts; ++q) {
    const std::uint64_t blocks =
        (shards.shard(q).size() + kBlockEdges - 1) / kBlockEdges;
    block_flags[q] = std::vector<std::atomic<std::uint8_t>>(
        std::max<std::uint64_t>(blocks, 1));
  }

  for (std::uint64_t s = 0; s < budget; ++s) {
    WallTimer superstep_timer;
    const auto stamp = static_cast<std::uint32_t>(s);
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> io_read{0};
    std::atomic<std::uint64_t> io_written{0};
    for (auto& c : stamped_in_shard) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& flags : block_flags) {
      for (auto& f : flags) {
        f.store(0, std::memory_order_relaxed);
      }
    }

    // Intervals with no scheduled vertex are skipped outright.
    std::vector<std::uint64_t> scheduled_in_interval(parts, 0);
    for (unsigned p = 0; p < parts; ++p) {
      for (VertexId v = shards.interval_begin(p); v < shards.interval_end(p);
           ++v) {
        scheduled_in_interval[p] += scheduled[v];
      }
    }

    // --- Scatter: per interval, walk one sliding window per shard. -------
    parallel_for_blocks(0, parts, threads, [&](std::uint64_t lo,
                                               std::uint64_t hi,
                                               unsigned /*block*/) {
      std::uint64_t local_messages = 0;
      std::uint64_t local_read = 0;
      std::vector<std::uint64_t> local_stamped(parts, 0);
      for (unsigned p = static_cast<unsigned>(lo); p < hi; ++p) {
        if (scheduled_in_interval[p] == 0) {
          continue;  // no scheduled vertex: the windows are never loaded
        }
        // One cursor per shard, advanced monotonically as v increases —
        // the sliding window.
        std::vector<std::uint64_t> cursor(parts);
        std::vector<std::uint64_t> window_end(parts);
        for (unsigned q = 0; q < parts; ++q) {
          cursor[q] = shards.window_begin(q, p);
          window_end[q] = shards.window_end(q, p);
        }
        for (VertexId v = shards.interval_begin(p);
             v < shards.interval_end(p); ++v) {
          if (!scheduled[v]) {
            // Still slide the cursors past v's edges.
            for (unsigned q = 0; q < parts; ++q) {
              auto shard = shards.shard(q);
              while (cursor[q] < window_end[q] &&
                     shard[cursor[q]].src == v) {
                ++cursor[q];
              }
            }
            continue;
          }
          const Payload value = values[v];
          const std::uint32_t degree = out_degree[v];
          for (unsigned q = 0; q < parts; ++q) {
            auto shard = shards.shard(q);
            while (cursor[q] < window_end[q] && shard[cursor[q]].src == v) {
              ShardEdge& edge = shard[cursor[q]];
              edge.value = program.gen_msg(v, edge.dst, value, degree);
              edge.stamp = stamp;
              block_flags[q][cursor[q] / kBlockEdges].store(
                  1, std::memory_order_relaxed);
              ++local_messages;
              ++local_stamped[q];
              ++cursor[q];
            }
          }
        }
      }
      messages.fetch_add(local_messages, std::memory_order_relaxed);
      (void)local_read;
      // Written-back edge values: 4 B each in GraphChi's layout.
      io_written.fetch_add(4 * local_messages, std::memory_order_relaxed);
      for (unsigned q = 0; q < parts; ++q) {
        if (local_stamped[q] != 0) {
          stamped_in_shard[q].fetch_add(local_stamped[q],
                                        std::memory_order_relaxed);
        }
      }
    });

    // Block-granular read accounting: the scatter read each dirty block
    // before modifying it, and the gather reads it again below.
    {
      std::uint64_t dirty_block_bytes = 0;
      for (unsigned q = 0; q < parts; ++q) {
        for (const auto& f : block_flags[q]) {
          if (f.load(std::memory_order_relaxed) != 0) {
            dirty_block_bytes += kBlockBytes;
          }
        }
      }
      io_read.fetch_add(2 * dirty_block_bytes, std::memory_order_relaxed);
    }

    // --- Gather: per interval, stream its shard, fold fresh stamps. ------
    parallel_for_blocks(0, parts, threads, [&](std::uint64_t lo,
                                               std::uint64_t hi,
                                               unsigned /*block*/) {
      for (unsigned q = static_cast<unsigned>(lo); q < hi; ++q) {
        if (stamped_in_shard[q].load(std::memory_order_relaxed) == 0) {
          // No fresh in-edges anywhere in this shard: nothing to fold,
          // but next-superstep scheduling still needs clearing.
          std::fill(next_scheduled.begin() + shards.interval_begin(q),
                    next_scheduled.begin() + shards.interval_end(q), 0);
          continue;
        }
        const VertexId begin = shards.interval_begin(q);
        const VertexId end = shards.interval_end(q);
        std::vector<Payload> acc(end - begin);
        std::vector<char> touched(end - begin, 0);
        // Sum-fold programs fold exactly, as the engine's apply does.
        std::optional<SliceSumFold> sums;
        if (program.sum_fold()) {
          sums.emplace().init(begin, end - begin);
        }
        // Stream only the dirty blocks (GraphChi's block-level shard I/O).
        const auto shard = shards.shard(q);
        for (std::uint64_t b = 0; b < block_flags[q].size(); ++b) {
          if (block_flags[q][b].load(std::memory_order_relaxed) == 0) {
            continue;
          }
          const std::uint64_t first = b * kBlockEdges;
          const std::uint64_t last =
              std::min<std::uint64_t>(first + kBlockEdges, shard.size());
          for (std::uint64_t i = first; i < last; ++i) {
            const ShardEdge& edge = shard[i];
            if (edge.stamp != stamp) {
              continue;
            }
            if (sums.has_value()) {
              sums->add(edge.dst, edge.value, [&] {
                return program.first_update(edge.dst, values[edge.dst]);
              });
              continue;
            }
            const VertexId local = edge.dst - begin;
            if (!touched[local]) {
              touched[local] = 1;
              acc[local] = program.compute(
                  program.first_update(edge.dst, values[edge.dst]),
                  edge.value);
            } else {
              acc[local] = program.compute(acc[local], edge.value);
            }
          }
        }
        for (VertexId v = begin; v < end; ++v) {
          const VertexId local = v - begin;
          next_scheduled[v] = 0;
          if (touched[local] && program.changed(values[v], acc[local])) {
            values[v] = acc[local];
            next_scheduled[v] = 1;
          }
        }
        if (sums.has_value()) {
          // Activation is decided on the finished sum.
          sums->finish([&](VertexId v, Payload sum) {
            if (program.changed(values[v], sum)) {
              values[v] = sum;
              next_scheduled[v] = 1;
            }
          });
        }
      }
    });

    out.superstep_seconds.push_back(superstep_timer.elapsed_seconds());
    out.total_messages += messages.load();
    out.io.bytes_read += io_read.load();
    out.io.bytes_written += io_written.load();
    ++out.supersteps;
    scheduled.swap(next_scheduled);
    if (messages.load() == 0) {
      out.converged = true;
      break;
    }
  }
  out.elapsed_seconds = total_timer.elapsed_seconds();
  // Shards at GraphChi's 8 B/edge plus the vertex value array.
  out.working_set_bytes =
      8 * graph.num_edges() + 4 * static_cast<std::uint64_t>(n);
  out.values = std::move(values);
  return out;
} catch (const std::exception& e) {
  // A program hook threw, or a sum left the exact fold's range.
  return internal_error(std::string("PswEngine: ") + e.what());
}

}  // namespace gpsa
