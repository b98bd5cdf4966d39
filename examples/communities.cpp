// Community structure via connected components on an undirected social
// graph: symmetrize the edge list, run CC to quiescence, and report the
// component-size distribution.
//
//   ./communities [--members=50000] [--friendships=200000] [--seed=5]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <vector>

#include "apps/cc.hpp"
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
  const auto members_or = config.get_uint(
      "members", 50'000, std::numeric_limits<gpsa::VertexId>::max());
  const auto friendships_or = config.get_uint("friendships", 200'000);
  const auto seed_or = config.get_uint("seed", 5);
  for (const gpsa::Status& st :
       {members_or.status(), friendships_or.status(), seed_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }
  const auto members = static_cast<gpsa::VertexId>(members_or.value());
  const auto friendships =
      static_cast<gpsa::EdgeCount>(friendships_or.value());
  const std::uint64_t seed = seed_or.value();

  // Sparse random friendships leave many singletons and a giant component —
  // the classic Erdős–Rényi structure.
  gpsa::EdgeList directed = gpsa::erdos_renyi(members, friendships, seed);
  gpsa::EdgeList graph;
  graph.ensure_vertices(directed.num_vertices());
  for (const gpsa::Edge& e : directed.edges()) {
    graph.add_edge(e.src, e.dst);
    graph.add_edge(e.dst, e.src);
  }
  graph.canonicalize();
  std::printf("undirected social graph: %u members, %llu friendship edges\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges() / 2));

  gpsa::EngineOptions options;
  options.num_dispatchers = 4;
  options.num_computers = 4;
  const gpsa::ConnectedComponentsProgram cc;
  auto result = gpsa::Engine::run(graph, cc, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const gpsa::RunResult& run = result.value();
  std::printf("converged in %llu supersteps (%llu label messages)\n",
              static_cast<unsigned long long>(run.supersteps),
              static_cast<unsigned long long>(run.total_messages));

  // Component sizes keyed by representative label.
  std::map<gpsa::Payload, std::uint64_t> size_by_label;
  for (gpsa::Payload label : run.values) {
    ++size_by_label[label];
  }
  std::vector<std::uint64_t> sizes;
  sizes.reserve(size_by_label.size());
  for (const auto& [label, size] : size_by_label) {
    sizes.push_back(size);
  }
  std::sort(sizes.rbegin(), sizes.rend());

  std::printf("\ncommunities found: %zu\n", sizes.size());
  std::printf("largest community: %llu members (%.1f%% of the graph)\n",
              static_cast<unsigned long long>(sizes.front()),
              100.0 * static_cast<double>(sizes.front()) /
                  graph.num_vertices());
  std::uint64_t singletons = 0;
  for (std::uint64_t s : sizes) {
    singletons += (s == 1) ? 1 : 0;
  }
  std::printf("isolated members: %llu\n",
              static_cast<unsigned long long>(singletons));
  std::printf("\ntop community sizes:");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, sizes.size()); ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(sizes[i]));
  }
  std::printf("\n");
  return 0;
}
