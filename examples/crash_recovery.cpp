// Demonstrates the lightweight fault tolerance of §IV.G end to end:
//
//   1. run BFS with per-superstep checkpointing, stopping partway;
//   2. simulate a mid-superstep crash by tearing the mutable column of
//      the value file (random garbage + partially consumed flags);
//   3. resume from the same files — recovery restores the immutable
//      column — and run to convergence;
//   4. verify the answer equals a clean, uncrashed run.
//
//   ./crash_recovery [--pages-scale=14] [--links=200000] [--crash-after=3]
#include <cstdio>

#include "apps/bfs.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

void tear(const std::string& value_path) {
  auto file_or = gpsa::ValueFile::open(value_path);
  if (!file_or.is_ok()) {
    std::fprintf(stderr, "cannot open value file: %s\n",
                 file_or.status().to_string().c_str());
    std::exit(1);
  }
  gpsa::ValueFile& file = file_or.value();
  const std::uint64_t resume = file.completed_supersteps();
  const unsigned torn_col = gpsa::ValueFile::update_column(resume);
  gpsa::Rng rng(99);
  std::uint64_t torn = 0;
  for (gpsa::VertexId v = 0; v < file.num_vertices(); ++v) {
    if (rng.next_bool(0.6)) {
      file.store(v, torn_col,
                 gpsa::make_slot(
                     static_cast<gpsa::Payload>(
                         rng.next_below(gpsa::kPayloadMask)),
                     rng.next_bool(0.5)));
      ++torn;
    }
  }
  std::printf("  tore %llu slots in column %u (the superstep-%llu update "
              "column)\n",
              static_cast<unsigned long long>(torn), torn_col,
              static_cast<unsigned long long>(resume));
}

}  // namespace

int main(int argc, char** argv) {
  auto config_or = gpsa::Config::from_args(argc, argv);
  if (!config_or.is_ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().to_string().c_str());
    return 1;
  }
  const gpsa::Config& config = config_or.value();
  // 2^scale vertices must fit a VertexId.
  const auto scale_or = config.get_uint("pages-scale", 14, 31);
  const auto links_or = config.get_uint("links", 200'000);
  const auto crash_after_or = config.get_uint("crash-after", 3);
  for (const gpsa::Status& st :
       {scale_or.status(), links_or.status(), crash_after_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }
  const auto scale = static_cast<unsigned>(scale_or.value());
  const auto links = static_cast<gpsa::EdgeCount>(links_or.value());
  const std::uint64_t crash_after = crash_after_or.value();

  const gpsa::EdgeList graph = gpsa::rmat(scale, links, /*seed=*/123);
  const gpsa::BfsProgram bfs(0);

  auto dir_or = gpsa::ScratchDir::create("crash-demo");
  if (!dir_or.is_ok()) {
    std::fprintf(stderr, "%s\n", dir_or.status().to_string().c_str());
    return 1;
  }
  gpsa::ScratchDir dir = std::move(dir_or).value();

  gpsa::EngineOptions options;
  options.num_dispatchers = 2;
  options.num_computers = 2;
  options.checkpoint_each_superstep = true;
  options.work_dir = dir.path();

  std::printf("[1] running BFS with checkpointing, crashing after %llu "
              "supersteps...\n",
              static_cast<unsigned long long>(crash_after));
  gpsa::EngineOptions partial = options;
  partial.max_supersteps = crash_after;
  auto first = gpsa::Engine::run(graph, bfs, partial);
  if (!first.is_ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 first.status().to_string().c_str());
    return 1;
  }
  std::printf("    %llu supersteps checkpointed, %llu messages so far\n",
              static_cast<unsigned long long>(first.value().supersteps),
              static_cast<unsigned long long>(first.value().total_messages));

  std::printf("[2] simulating a crash mid-superstep...\n");
  tear(dir.file("bfs.values"));

  std::printf("[3] resuming from the crashed files...\n");
  auto resumed = gpsa::Engine::run_from_csr(dir.file("graph.csr"), bfs,
                                            options, /*resume=*/true);
  if (!resumed.is_ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 resumed.status().to_string().c_str());
    return 1;
  }
  std::printf("    resumed and ran %llu more supersteps to convergence\n",
              static_cast<unsigned long long>(resumed.value().supersteps));

  std::printf("[4] verifying against a clean run...\n");
  gpsa::EngineOptions clean;
  clean.num_dispatchers = 2;
  clean.num_computers = 2;
  auto reference = gpsa::Engine::run(graph, bfs, clean);
  if (!reference.is_ok()) {
    std::fprintf(stderr, "clean run failed: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }
  std::uint64_t mismatches = 0;
  for (std::size_t v = 0; v < reference.value().values.size(); ++v) {
    if (reference.value().values[v] != resumed.value().values[v]) {
      ++mismatches;
    }
  }
  if (mismatches == 0) {
    std::printf("    recovery verified: all %zu vertex values identical to "
                "the uncrashed run\n",
                reference.value().values.size());
    return 0;
  }
  std::printf("    RECOVERY FAILED: %llu mismatching vertices\n",
              static_cast<unsigned long long>(mismatches));
  return 1;
}
