// Influence analysis on a social network — the workload class (social
// graphs like soc-Pokec / twitter-2010) the paper's introduction
// motivates.
//
// Generates a power-law follower graph, runs PageRank on GPSA, and
// reports: the top influencers, how concentrated influence is (share of
// total rank held by the top 1%), and the rank distribution histogram.
//
//   ./social_rank [--members=100000] [--follows-per-member=15]
//                 [--iterations=15] [--dispatchers=4] [--computers=4]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <vector>

#include "apps/pagerank.hpp"
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
  // The graph's 2^scale >= members vertices must fit a VertexId, and
  // members * follows an EdgeCount.
  constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
  const auto members_or = config.get_uint("members", 100'000, 1ULL << 31);
  const auto follows_or =
      config.get_uint("follows-per-member", 15, kMaxUnsigned);
  const auto iterations_or = config.get_uint("iterations", 15);
  const auto dispatchers_or = config.get_uint("dispatchers", 4, kMaxUnsigned);
  const auto computers_or = config.get_uint("computers", 4, kMaxUnsigned);
  for (const gpsa::Status& st :
       {members_or.status(), follows_or.status(), iterations_or.status(),
        dispatchers_or.status(), computers_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }
  const std::uint64_t members = members_or.value();
  const std::uint64_t follows = follows_or.value();
  const std::uint64_t iterations = iterations_or.value();

  unsigned scale = 1;
  while ((1ULL << scale) < members) {
    ++scale;
  }
  const gpsa::EdgeList graph =
      gpsa::rmat(scale, members * follows, /*seed=*/2026);
  std::printf("social network: %u members, %llu follow edges\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  gpsa::EngineOptions options;
  options.num_dispatchers = static_cast<unsigned>(dispatchers_or.value());
  options.num_computers = static_cast<unsigned>(computers_or.value());

  const gpsa::PageRankProgram pagerank(iterations);
  auto result = gpsa::Engine::run(graph, pagerank, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& values = result.value().values;

  std::vector<float> ranks(values.size());
  for (std::size_t v = 0; v < values.size(); ++v) {
    ranks[v] = gpsa::payload_to_float(values[v]);
  }
  const double total = std::accumulate(ranks.begin(), ranks.end(), 0.0);

  // Top influencers.
  std::vector<gpsa::VertexId> order(ranks.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return ranks[a] > ranks[b];
  });
  std::printf("\ntop influencers:\n");
  for (int i = 0; i < 5 && i < static_cast<int>(order.size()); ++i) {
    std::printf("  member %-8u rank %.6f (%.2f%% of total influence)\n",
                order[i], ranks[order[i]],
                100.0 * ranks[order[i]] / total);
  }

  // Concentration: share of rank held by the top 1%.
  const std::size_t one_percent = std::max<std::size_t>(1, order.size() / 100);
  double top_share = 0.0;
  for (std::size_t i = 0; i < one_percent; ++i) {
    top_share += ranks[order[i]];
  }
  std::printf("\ninfluence concentration: top 1%% of members hold %.1f%% of "
              "total rank\n",
              100.0 * top_share / total);

  // Log-scale histogram of ranks.
  std::printf("\nrank distribution (log10 buckets):\n");
  std::vector<std::size_t> histogram(12, 0);
  for (float r : ranks) {
    const double lg = r > 0 ? -std::log10(static_cast<double>(r)) : 11.0;
    const auto bucket =
        static_cast<std::size_t>(std::clamp(lg, 0.0, 11.0));
    ++histogram[bucket];
  }
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    if (histogram[b] == 0) {
      continue;
    }
    std::printf("  1e-%-2zu  %8zu members  ", b, histogram[b]);
    const int bars = static_cast<int>(
        60.0 * static_cast<double>(histogram[b]) /
        static_cast<double>(ranks.size()));
    for (int i = 0; i < bars; ++i) {
      std::putchar('#');
    }
    std::putchar('\n');
  }
  return 0;
}
