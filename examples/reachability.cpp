// Web-crawl reachability — BFS over a web-graph-like input (the paper's
// other motivating domain), optionally loaded from a SNAP-style text edge
// list.
//
//   ./reachability [--graph=/path/to/edges.txt] [--root=0]
//                  [--pages-scale=16] [--links=500000]
//
// Reports the reachable fraction from the root and the frontier profile
// per hop (which is also the per-superstep message trace of the engine).
#include <cstdio>
#include <limits>
#include <vector>

#include "apps/bfs.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  auto config_or = gpsa::Config::from_args(argc, argv);
  if (!config_or.is_ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().to_string().c_str());
    return 1;
  }
  const gpsa::Config& config = config_or.value();
  // 2^scale vertices must fit a VertexId.
  const auto scale_or = config.get_uint("pages-scale", 16, 31);
  const auto links_or = config.get_uint("links", 500'000);
  const auto root_or = config.get_uint(
      "root", 0, std::numeric_limits<gpsa::VertexId>::max());
  for (const gpsa::Status& st :
       {scale_or.status(), links_or.status(), root_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }

  gpsa::EdgeList graph;
  const std::string path = config.get_string("graph", "");
  if (!path.empty()) {
    auto loaded = gpsa::EdgeList::read_text(path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   loaded.status().to_string().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
    std::printf("loaded %s\n", path.c_str());
  } else {
    graph = gpsa::rmat(static_cast<unsigned>(scale_or.value()),
                       static_cast<gpsa::EdgeCount>(links_or.value()),
                       /*seed=*/77);
    std::printf("generated web-like graph\n");
  }
  std::printf("pages: %u, links: %llu\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  const auto root = static_cast<gpsa::VertexId>(root_or.value());
  if (root >= graph.num_vertices()) {
    std::fprintf(stderr, "root %u out of range\n", root);
    return 1;
  }

  gpsa::EngineOptions options;
  options.num_dispatchers = 4;
  options.num_computers = 4;
  const gpsa::BfsProgram bfs(root);
  auto result = gpsa::Engine::run(graph, bfs, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const gpsa::RunResult& run = result.value();

  // Level histogram.
  std::vector<std::uint64_t> per_level;
  std::uint64_t reached = 0;
  for (gpsa::Payload level : run.values) {
    if (level == gpsa::kPayloadInfinity) {
      continue;
    }
    if (level >= per_level.size()) {
      per_level.resize(level + 1, 0);
    }
    ++per_level[level];
    ++reached;
  }
  std::printf("\nreachable from page %u: %llu of %u pages (%.1f%%) in %llu "
              "hops\n",
              root, static_cast<unsigned long long>(reached),
              graph.num_vertices(),
              100.0 * static_cast<double>(reached) / graph.num_vertices(),
              static_cast<unsigned long long>(per_level.size() - 1));
  std::printf("\nfrontier size per hop (and engine messages per superstep):\n");
  for (std::size_t level = 0; level < per_level.size(); ++level) {
    const std::uint64_t msgs = level < run.superstep_messages.size()
                                   ? run.superstep_messages[level]
                                   : 0;
    std::printf("  hop %-3zu  %8llu pages   %10llu messages\n", level,
                static_cast<unsigned long long>(per_level[level]),
                static_cast<unsigned long long>(msgs));
  }
  return 0;
}
