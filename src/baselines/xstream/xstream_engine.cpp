#include "baselines/xstream/xstream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "platform/file_util.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"

namespace gpsa {
namespace {

struct Update {
  VertexId dst;
  Payload value;
};

/// Append-only spill stream for one (source partition -> dest partition)
/// update flow. Out-of-core mode buffers through a file (sequential
/// writes, sequential read-back, truncated between supersteps); in-memory
/// mode (the paper's other X-Stream configuration) keeps the stream in a
/// vector. The gather path is identical either way.
class UpdateStream {
 public:
  UpdateStream(std::string path, bool in_memory)
      : path_(std::move(path)), in_memory_(in_memory) {}

  Status append(const std::vector<Update>& updates) {
    if (in_memory_) {
      buffer_.insert(buffer_.end(), updates.begin(), updates.end());
      return Status::ok();
    }
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr) {
      return io_error_errno("UpdateStream: open " + path_);
    }
    const std::size_t written =
        std::fwrite(updates.data(), sizeof(Update), updates.size(), f);
    std::fclose(f);
    if (written != updates.size()) {
      return io_error("UpdateStream: short write to " + path_);
    }
    return Status::ok();
  }

  Result<std::vector<Update>> read_all() const {
    if (in_memory_) {
      return buffer_;
    }
    std::vector<Update> out;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) {
      return out;  // never written this superstep
    }
    Update buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, sizeof(Update), 4096, f)) > 0) {
      out.insert(out.end(), buffer, buffer + got);
    }
    std::fclose(f);
    return out;
  }

  void reset() {
    if (in_memory_) {
      buffer_.clear();
      return;
    }
    (void)remove_file(path_);
  }

 private:
  std::string path_;
  bool in_memory_;
  std::vector<Update> buffer_;
};

}  // namespace

Result<BaselineResult> XStreamEngine::run(const EdgeList& graph,
                                          const Program& program,
                                          const BaselineOptions& options) try {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("XStreamEngine: empty graph");
  }
  const unsigned threads =
      options.threads != 0 ? options.threads : default_worker_count();
  const unsigned partitions = std::min<unsigned>(
      options.partitions != 0 ? options.partitions
                              : default_partition_count(n),
      n);

  std::optional<ScratchDir> scratch;
  std::string dir = options.work_dir;
  if (dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("xstream"));
    dir = s.path();
    scratch.emplace(std::move(s));
  }

  BaselineResult out;
  WallTimer preprocess_timer;

  // Partition boundaries (equal vertex ranges) and per-partition edge
  // arrays (edges bucketed by source partition — X-Stream's layout; no
  // sorting, "streaming completely unordered edge lists").
  std::vector<VertexId> boundaries(partitions + 1);
  for (unsigned p = 0; p <= partitions; ++p) {
    boundaries[p] =
        static_cast<VertexId>((static_cast<std::uint64_t>(n) * p) / partitions);
  }
  const auto partition_of = [&boundaries](VertexId v) {
    const auto it = std::upper_bound(boundaries.begin(), boundaries.end(), v);
    return static_cast<unsigned>(it - boundaries.begin() - 1);
  };
  std::vector<std::vector<Edge>> partition_edges(partitions);
  std::vector<std::uint32_t> out_degree(n, 0);
  for (const Edge& e : graph.edges()) {
    GPSA_CHECK(e.src < n && e.dst < n);
    partition_edges[partition_of(e.src)].push_back(e);
    ++out_degree[e.src];
  }
  out.preprocess_seconds = preprocess_timer.elapsed_seconds();

  std::vector<Payload> values(n);
  std::vector<char> active(n, 0);
  std::vector<char> next_active(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const Program::InitialState st = program.init(v, n);
    values[v] = st.value;
    active[v] = st.active ? 1 : 0;
  }

  // K x K spill streams.
  std::vector<std::vector<UpdateStream>> spill;
  spill.reserve(partitions);
  for (unsigned p = 0; p < partitions; ++p) {
    std::vector<UpdateStream> row;
    row.reserve(partitions);
    for (unsigned q = 0; q < partitions; ++q) {
      row.emplace_back(dir + "/upd." + std::to_string(p) + "." +
                           std::to_string(q),
                       options.xstream_in_memory);
    }
    spill.push_back(std::move(row));
  }

  std::uint64_t budget = program.max_supersteps();
  if (options.max_supersteps != 0) {
    budget = std::min(budget, options.max_supersteps);
  }

  WallTimer total_timer;
  for (std::uint64_t s = 0; s < budget; ++s) {
    WallTimer superstep_timer;
    std::atomic<std::uint64_t> updates_appended{0};
    std::atomic<bool> failed{false};

    // --- Scatter: stream every edge of every partition. ------------------
    parallel_for_blocks(0, partitions, threads, [&](std::uint64_t lo,
                                                    std::uint64_t hi,
                                                    unsigned /*block*/) {
      for (unsigned p = static_cast<unsigned>(lo); p < hi; ++p) {
        std::vector<std::vector<Update>> staging(partitions);
        for (const Edge& e : partition_edges[p]) {
          if (!active[e.src]) {
            continue;  // the edge was still streamed (counted below)
          }
          staging[partition_of(e.dst)].push_back(Update{
              e.dst,
              program.gen_msg(e.src, e.dst, values[e.src], out_degree[e.src])});
        }
        for (unsigned q = 0; q < partitions; ++q) {
          if (staging[q].empty()) {
            continue;
          }
          updates_appended.fetch_add(staging[q].size(),
                                     std::memory_order_relaxed);
          if (!spill[p][q].append(staging[q]).is_ok()) {
            failed.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
    out.edges_streamed += graph.num_edges();  // every edge, every superstep
    // Edge-centric streaming: 8 B per edge read, 8 B per update written.
    out.io.bytes_read += 8 * graph.num_edges();
    out.io.bytes_written += 8 * updates_appended.load();
    if (failed.load()) {
      return io_error("XStreamEngine: update spill failed");
    }

    // --- Gather: stream each destination partition's update files. -------
    parallel_for_blocks(0, partitions, threads, [&](std::uint64_t lo,
                                                    std::uint64_t hi,
                                                    unsigned /*block*/) {
      for (unsigned q = static_cast<unsigned>(lo); q < hi; ++q) {
        const VertexId begin = boundaries[q];
        const VertexId end = boundaries[q + 1];
        std::vector<Payload> acc(end - begin);
        std::vector<char> touched(end - begin, 0);
        // Sum-fold programs fold exactly, as the engine's apply does.
        std::optional<SliceSumFold> sums;
        if (program.sum_fold()) {
          sums.emplace().init(begin, end - begin);
        }
        for (unsigned p = 0; p < partitions; ++p) {
          auto updates = spill[p][q].read_all();
          if (!updates.is_ok()) {
            failed.store(true, std::memory_order_relaxed);
            continue;
          }
          for (const Update& u : updates.value()) {
            if (sums.has_value()) {
              sums->add(u.dst, u.value, [&] {
                return program.first_update(u.dst, values[u.dst]);
              });
              continue;
            }
            const VertexId local = u.dst - begin;
            if (!touched[local]) {
              touched[local] = 1;
              acc[local] = program.compute(
                  program.first_update(u.dst, values[u.dst]), u.value);
            } else {
              acc[local] = program.compute(acc[local], u.value);
            }
          }
          spill[p][q].reset();
        }
        for (VertexId v = begin; v < end; ++v) {
          const VertexId local = v - begin;
          next_active[v] = 0;
          if (touched[local] && program.changed(values[v], acc[local])) {
            values[v] = acc[local];
            next_active[v] = 1;
          }
        }
        if (sums.has_value()) {
          // Activation is decided on the finished sum.
          sums->finish([&](VertexId v, Payload sum) {
            if (program.changed(values[v], sum)) {
              values[v] = sum;
              next_active[v] = 1;
            }
          });
        }
      }
    });
    if (failed.load()) {
      return io_error("XStreamEngine: update read-back failed");
    }
    // Gather reads every spilled update back: 8 B per update.
    out.io.bytes_read += 8 * updates_appended.load();

    out.superstep_seconds.push_back(superstep_timer.elapsed_seconds());
    out.total_messages += updates_appended.load();
    ++out.supersteps;
    active.swap(next_active);
    if (updates_appended.load() == 0) {
      out.converged = true;
      break;
    }
  }
  out.elapsed_seconds = total_timer.elapsed_seconds();
  // Edge lists, vertex values, and one superstep of update spill
  // (approximated by the per-superstep average).
  const std::uint64_t avg_updates =
      out.total_messages / std::max<std::uint64_t>(out.supersteps, 1);
  out.working_set_bytes = 8 * graph.num_edges() +
                          4 * static_cast<std::uint64_t>(n) +
                          8 * avg_updates;
  out.values = std::move(values);
  return out;
} catch (const std::exception& e) {
  // A program hook threw, or a sum left the exact fold's range.
  return internal_error(std::string("XStreamEngine: ") + e.what());
}

}  // namespace gpsa
