// Writing your own vertex program.
//
// Implements "widest path" (maximum-bottleneck-bandwidth routing) from a
// source: the value of a vertex is the best bottleneck bandwidth of any
// path from the source, messages carry min(value, edge bandwidth), and
// the fold is max. Demonstrates everything an app author touches:
// init / gen_msg / first_update / compute / changed.
//
//   ./custom_program [--routers-scale=12] [--cables=60000] [--source=0]
#include <algorithm>
#include <cstdio>
#include <limits>

#include "apps/weights.hpp"
#include "core/engine.hpp"
#include "core/program.hpp"
#include "graph/generators.hpp"
#include "util/config.hpp"

namespace {

/// Bottleneck-bandwidth propagation. Payloads are bandwidth units in
/// [0, 16]; the synthetic edge weight doubles as the cable bandwidth.
class WidestPathProgram final : public gpsa::Program {
 public:
  explicit WidestPathProgram(gpsa::VertexId source) : source_(source) {}

  std::string name() const override { return "widest-path"; }

  InitialState init(gpsa::VertexId v, gpsa::VertexId) const override {
    if (v == source_) {
      // The source reaches itself over an infinitely wide "path".
      return {gpsa::kPayloadInfinity, true};
    }
    return {0, false};  // no known path: zero bandwidth
  }

  gpsa::Payload gen_msg(gpsa::VertexId src, gpsa::VertexId dst,
                        gpsa::Payload value,
                        std::uint32_t /*out_degree*/) const override {
    // Path bottleneck through this cable.
    return std::min<gpsa::Payload>(value,
                                   gpsa::synthetic_edge_weight(src, dst));
  }

  gpsa::Payload first_update(gpsa::VertexId /*v*/,
                             gpsa::Payload stored) const override {
    return stored;
  }

  gpsa::Payload compute(gpsa::Payload accumulator,
                        gpsa::Payload message) const override {
    return std::max(accumulator, message);  // widest wins
  }

  bool changed(gpsa::Payload before, gpsa::Payload after) const override {
    return after > before;
  }

 private:
  gpsa::VertexId source_;
};

}  // namespace

int main(int argc, char** argv) {
  auto config_or = gpsa::Config::from_args(argc, argv);
  if (!config_or.is_ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().to_string().c_str());
    return 1;
  }
  const gpsa::Config& config = config_or.value();
  // 2^scale vertices must fit a VertexId.
  const auto scale_or = config.get_uint("routers-scale", 12, 31);
  const auto cables_or = config.get_uint("cables", 60'000);
  const auto source_or = config.get_uint(
      "source", 0, std::numeric_limits<gpsa::VertexId>::max());
  for (const gpsa::Status& st :
       {scale_or.status(), cables_or.status(), source_or.status()}) {
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
  }
  const auto scale = static_cast<unsigned>(scale_or.value());
  const auto cables = static_cast<gpsa::EdgeCount>(cables_or.value());
  const auto source = static_cast<gpsa::VertexId>(source_or.value());

  const gpsa::EdgeList network = gpsa::rmat(scale, cables, /*seed=*/31);
  std::printf("network: %u routers, %llu cables (bandwidths 1-16)\n",
              network.num_vertices(),
              static_cast<unsigned long long>(network.num_edges()));

  const WidestPathProgram program(source);
  gpsa::EngineOptions options;
  options.num_dispatchers = 3;
  options.num_computers = 3;
  auto result = gpsa::Engine::run(network, program, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& values = result.value().values;

  // Histogram of achievable bandwidth from the source.
  std::uint64_t by_bandwidth[18] = {};
  std::uint64_t unreachable = 0;
  for (gpsa::VertexId v = 0; v < values.size(); ++v) {
    if (v == source) {
      continue;
    }
    if (values[v] == 0) {
      ++unreachable;
    } else {
      ++by_bandwidth[std::min<gpsa::Payload>(values[v], 17)];
    }
  }
  std::printf("\nbottleneck bandwidth from router %u (converged in %llu "
              "supersteps):\n",
              source,
              static_cast<unsigned long long>(result.value().supersteps));
  for (int b = 16; b >= 1; --b) {
    if (by_bandwidth[b] != 0) {
      std::printf("  bandwidth %-2d  %8llu routers\n", b,
                  static_cast<unsigned long long>(by_bandwidth[b]));
    }
  }
  std::printf("  unreachable   %8llu routers\n",
              static_cast<unsigned long long>(unreachable));
  return 0;
}
