// Quickstart: run PageRank on a small generated graph with the GPSA
// engine and print the ten highest-ranked vertices.
//
//   ./quickstart [--vertices-scale=10] [--edges=20000] [--iterations=10]
//
// This is the smallest end-to-end use of the public API:
//   1. build (or load) an EdgeList,
//   2. pick a Program,
//   3. Engine::run with EngineOptions,
//   4. read RunResult.values.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  auto config = gpsa::Config::from_args(argc, argv);
  if (!config.is_ok()) {
    std::fprintf(stderr, "%s\n", config.status().to_string().c_str());
    return 1;
  }
  // 2^scale vertices must fit a VertexId.
  const auto scale_or = config.value().get_uint("vertices-scale", 10, 31);
  const auto edges_or = config.value().get_uint("edges", 20'000);
  const auto iterations_or = config.value().get_uint("iterations", 10);
  for (const gpsa::Status& st :
       {scale_or.status(), edges_or.status(), iterations_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }
  const auto scale = static_cast<unsigned>(scale_or.value());
  const auto edges = static_cast<gpsa::EdgeCount>(edges_or.value());
  const std::uint64_t iterations = iterations_or.value();

  // 1. A scale-free "social network" with 2^scale members.
  const gpsa::EdgeList graph = gpsa::rmat(scale, edges, /*seed=*/1);
  std::printf("graph: %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  // 2. The algorithm to run.
  const gpsa::PageRankProgram pagerank(iterations);

  // 3. Engine configuration: two dispatching and two computing actors.
  gpsa::EngineOptions options;
  options.num_dispatchers = 2;
  options.num_computers = 2;

  auto result = gpsa::Engine::run(graph, pagerank, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const gpsa::RunResult& run = result.value();
  std::printf("ran %llu supersteps, %llu messages, %.3f s\n",
              static_cast<unsigned long long>(run.supersteps),
              static_cast<unsigned long long>(run.total_messages),
              run.elapsed_seconds);

  // 4. Rank vertices by final value.
  std::vector<gpsa::VertexId> order(run.values.size());
  for (gpsa::VertexId v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](gpsa::VertexId a, gpsa::VertexId b) {
                      return gpsa::payload_to_float(run.values[a]) >
                             gpsa::payload_to_float(run.values[b]);
                    });
  std::printf("top 10 vertices by PageRank:\n");
  for (int i = 0; i < 10; ++i) {
    std::printf("  #%2d  vertex %-8u rank %.6f\n", i + 1, order[i],
                gpsa::payload_to_float(run.values[order[i]]));
  }
  return 0;
}
