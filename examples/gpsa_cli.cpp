// gpsa_cli — the command-line front door to the whole system.
//
//   gpsa_cli --algo=pagerank --generator=rmat --scale=14 --edges=300000
//   gpsa_cli --algo=bfs --graph=edges.txt --root=5 --engine=xstream
//   gpsa_cli --algo=cc --graph=web.adj --format=adjacency --symmetrize
//            --engine=gpsa --dispatchers=4 --computers=4 --trace=trace.csv
//
// Options:
//   --algo=pagerank|pagerank_delta|bfs|cc|sssp|multibfs|indegree (required)
//                       (pagerank_delta: residual messages; converges on its
//                       own below GPSA_DELTA_EPS)
//   --engine=gpsa|graphchi|xstream|cluster|reference (default gpsa)
//   --graph=PATH        load a graph file instead of generating
//   --format=edges|adjacency|binary (text formats; default edges)
//   --generator=rmat|er|grid|chain  --scale=N --edges=M --seed=S
//   --symmetrize        add reverse edges (undirected semantics)
//   --root=V            BFS/SSSP start vertex
//   --iterations=N      PageRank iterations (default 20)
//   --supersteps=N      hard superstep cap
//   --dispatchers/--computers/--nodes=N, --checkpoint
//   --trace=PATH        write the per-superstep CSV trace
//   --top=K             print the K best-valued vertices (default 5)
//
// An unknown --flag prints the usage and exits 2 instead of running with
// defaults, and so does a malformed value of a known one (--top=3x) or one
// its type cannot hold (--top=4294967297, --scale=32).
//
// Subcommand:
//   gpsa_cli convert --in=BASE --out=BASE [--csr-format=v1|v2]
//                    [--csr-order=none|degree|bfs] [--no-degree]
//     Offline CSR re-encoder: reads the file pair at --in (any supported
//     format), translates back to original vertex ids through its
//     permutation if it was renumbered, and rewrites it at --out in the
//     requested format/order (default v2/none).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string_view>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/degree_count.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "baselines/xstream/xstream_engine.hpp"
#include "cluster/cluster_engine.hpp"
#include "core/engine.hpp"
#include "graph/adjacency.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/csr_v2.hpp"
#include "graph/generators.hpp"
#include "harness/trace.hpp"
#include "util/config.hpp"

namespace {

using namespace gpsa;

constexpr std::string_view kRunFlags[] = {
    "algo",       "engine",     "graph",      "format",      "generator",
    "scale",      "edges",      "seed",       "symmetrize",  "root",
    "iterations", "supersteps", "dispatchers", "computers",  "nodes",
    "checkpoint", "trace",      "top"};
constexpr std::string_view kConvertFlags[] = {"in", "out", "csr-format",
                                              "csr-order", "no-degree"};

constexpr const char* kRunUsage =
    "usage: gpsa_cli --algo=pagerank|pagerank_delta|bfs|cc|sssp|multibfs|"
    "indegree [options]\n(see the header of examples/gpsa_cli.cpp for the "
    "full list)\n";
constexpr const char* kConvertUsage =
    "usage: gpsa_cli convert --in=BASE --out=BASE [--csr-format=v1|v2] "
    "[--csr-order=none|degree|bfs] [--no-degree]\n";

/// Prints `usage` after naming the first flag not in `known`; false if
/// there is one.
bool flags_known(const Config& config, std::span<const std::string_view> known,
                 const char* usage) {
  for (const auto& entry : config.entries()) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      std::fprintf(stderr, "unknown option --%s\n%s", entry.first.c_str(),
                   usage);
      return false;
    }
  }
  return true;
}

/// The run flags' typed values, all read before anything runs, so a
/// malformed one fails up front.
struct RunFlags {
  std::uint64_t scale = 0;
  std::uint64_t edges = 0;
  std::uint64_t seed = 0;
  std::uint64_t root = 0;
  std::uint64_t iterations = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t top = 0;
  std::uint64_t dispatchers = 0;
  std::uint64_t computers = 0;
  std::uint64_t nodes = 0;
  bool symmetrize = false;
  bool checkpoint = false;
};

Result<RunFlags> read_run_flags(const Config& config, const std::string& algo) {
  // Each flag narrowed below is bounded by its type: 2^scale vertices
  // must fit a VertexId.
  constexpr std::uint64_t kMaxScale = 31;
  constexpr std::uint64_t kMaxVertex = std::numeric_limits<VertexId>::max();
  constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
  RunFlags f;
  GPSA_ASSIGN_OR_RETURN(f.scale, config.get_uint("scale", 14, kMaxScale));
  GPSA_ASSIGN_OR_RETURN(f.edges, config.get_uint("edges", 300'000));
  GPSA_ASSIGN_OR_RETURN(f.seed, config.get_uint("seed", 1));
  GPSA_ASSIGN_OR_RETURN(f.root, config.get_uint("root", 0, kMaxVertex));
  GPSA_ASSIGN_OR_RETURN(
      f.iterations,
      config.get_uint("iterations", algo == "pagerank_delta" ? 100 : 20));
  GPSA_ASSIGN_OR_RETURN(f.supersteps, config.get_uint("supersteps", 0));
  GPSA_ASSIGN_OR_RETURN(f.top, config.get_uint("top", 5, kMaxInt));
  GPSA_ASSIGN_OR_RETURN(f.dispatchers,
                        config.get_uint("dispatchers", 2, kMaxUnsigned));
  GPSA_ASSIGN_OR_RETURN(f.computers,
                        config.get_uint("computers", 2, kMaxUnsigned));
  GPSA_ASSIGN_OR_RETURN(f.nodes, config.get_uint("nodes", 4, kMaxUnsigned));
  GPSA_ASSIGN_OR_RETURN(f.symmetrize, config.get_bool("symmetrize", false));
  GPSA_ASSIGN_OR_RETURN(f.checkpoint, config.get_bool("checkpoint", false));
  return f;
}

Result<EdgeList> load_or_generate(const Config& config, const RunFlags& f) {
  const std::string path = config.get_string("graph", "");
  if (!path.empty()) {
    const std::string format = config.get_string("format", "edges");
    if (format == "edges") {
      return EdgeList::read_text(path);
    }
    if (format == "adjacency") {
      return read_adjacency_text(path);
    }
    if (format == "binary") {
      return EdgeList::read_binary(path);
    }
    return invalid_argument("unknown --format=" + format);
  }
  const std::string generator = config.get_string("generator", "rmat");
  const auto scale = static_cast<unsigned>(f.scale);
  const auto edges = static_cast<EdgeCount>(f.edges);
  if (generator == "rmat") {
    return rmat(scale, edges, f.seed);
  }
  if (generator == "er") {
    return erdos_renyi(static_cast<VertexId>(1U << scale), edges, f.seed);
  }
  if (generator == "grid") {
    const auto side = static_cast<VertexId>(1U << (scale / 2));
    return grid(side, side);
  }
  if (generator == "chain") {
    return chain(static_cast<VertexId>(1U << scale));
  }
  return invalid_argument("unknown --generator=" + generator);
}

std::unique_ptr<Program> make_program(const RunFlags& f,
                                      const std::string& algo) {
  const auto root = static_cast<VertexId>(f.root);
  if (algo == "pagerank") {
    return std::make_unique<PageRankProgram>(f.iterations);
  }
  if (algo == "pagerank_delta") {
    return std::make_unique<PageRankDeltaProgram>(f.iterations);
  }
  if (algo == "bfs") {
    return std::make_unique<BfsProgram>(root);
  }
  if (algo == "cc") {
    return std::make_unique<ConnectedComponentsProgram>();
  }
  if (algo == "sssp") {
    return std::make_unique<SsspProgram>(root);
  }
  if (algo == "multibfs") {
    return std::make_unique<MultiSourceReachabilityProgram>(
        std::vector<VertexId>{root, root + 1, root + 2});
  }
  if (algo == "indegree") {
    return std::make_unique<InDegreeProgram>();
  }
  return nullptr;
}

void print_top(const std::vector<Payload>& values, const std::string& algo,
               int top) {
  std::vector<VertexId> order(values.size());
  std::iota(order.begin(), order.end(), 0U);
  const bool float_valued = algo == "pagerank" || algo == "pagerank_delta";
  const bool lower_is_better = algo == "bfs" || algo == "sssp";
  std::partial_sort(
      order.begin(),
      order.begin() + std::min<std::size_t>(top, order.size()), order.end(),
      [&](VertexId a, VertexId b) {
        if (float_valued) {
          return payload_to_float(values[a]) > payload_to_float(values[b]);
        }
        return lower_is_better ? values[a] < values[b]
                               : values[a] > values[b];
      });
  std::printf("top %d vertices:\n", top);
  for (int i = 0; i < top && i < static_cast<int>(order.size()); ++i) {
    if (float_valued) {
      std::printf("  vertex %-10u %.6f\n", order[i],
                  payload_to_float(values[order[i]]));
    } else {
      std::printf("  vertex %-10u %u\n", order[i], values[order[i]]);
    }
  }
}

int run_convert(const Config& config) {
  const std::string in_base = config.get_string("in", "");
  const std::string out_base = config.get_string("out", "");
  if (!flags_known(config, kConvertFlags, kConvertUsage)) {
    return 2;
  }
  if (in_base.empty() || out_base.empty()) {
    std::fprintf(stderr, "%s", kConvertUsage);
    return 2;
  }
  auto format_or = parse_csr_format(config.get_string("csr-format", "v2"));
  if (!format_or.is_ok()) {
    std::fprintf(stderr, "%s\n", format_or.status().to_string().c_str());
    return 2;
  }
  auto order_or = parse_csr_order(config.get_string("csr-order", "none"));
  if (!order_or.is_ok()) {
    std::fprintf(stderr, "%s\n", order_or.status().to_string().c_str());
    return 2;
  }
  auto no_degree_or = config.get_bool("no-degree", false);
  if (!no_degree_or.is_ok()) {
    std::fprintf(stderr, "%s\n", no_degree_or.status().to_string().c_str());
    return 2;
  }
  const Status st = convert_csr_file(in_base, out_base, format_or.value(),
                                     order_or.value(), !no_degree_or.value());
  if (!st.is_ok()) {
    std::fprintf(stderr, "convert: %s\n", st.to_string().c_str());
    return 1;
  }
  auto reader_or = CsrFileReader::open(out_base);
  if (!reader_or.is_ok()) {
    std::fprintf(stderr, "convert: reopening output failed: %s\n",
                 reader_or.status().to_string().c_str());
    return 1;
  }
  const CsrFileReader& out = reader_or.value();
  std::printf("converted %s -> %s (%s/%s): %u vertices, %llu edges, "
              "%llu entry-file bytes\n",
              in_base.c_str(), out_base.c_str(),
              csr_format_name(out.format()), csr_order_name(out.order()),
              out.num_vertices(),
              static_cast<unsigned long long>(out.num_edges()),
              static_cast<unsigned long long>(out.entry_file_bytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto config_or = Config::from_args(argc, argv);
  if (!config_or.is_ok()) {
    std::fprintf(stderr, "%s\n", config_or.status().to_string().c_str());
    return 1;
  }
  const Config& config = config_or.value();
  if (!config.positional().empty() && config.positional()[0] == "convert") {
    return run_convert(config);
  }
  if (!flags_known(config, kRunFlags, kRunUsage)) {
    return 2;
  }
  const std::string algo = config.get_string("algo", "");
  auto flags_or = read_run_flags(config, algo);
  if (!flags_or.is_ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().to_string().c_str());
    return 2;
  }
  const RunFlags& flags = flags_or.value();
  const auto program = make_program(flags, algo);
  if (program == nullptr) {
    std::fprintf(stderr, "%s", kRunUsage);
    return 2;
  }

  auto graph_or = load_or_generate(config, flags);
  if (!graph_or.is_ok()) {
    std::fprintf(stderr, "graph: %s\n",
                 graph_or.status().to_string().c_str());
    return 1;
  }
  EdgeList graph = std::move(graph_or).value();
  if (flags.symmetrize) {
    EdgeList sym;
    sym.ensure_vertices(graph.num_vertices());
    for (const Edge& e : graph.edges()) {
      sym.add_edge(e.src, e.dst);
      sym.add_edge(e.dst, e.src);
    }
    sym.canonicalize();
    graph = std::move(sym);
  }
  std::printf("graph: %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  const std::string engine = config.get_string("engine", "gpsa");
  const int top = static_cast<int>(flags.top);

  std::vector<Payload> values;
  if (engine == "gpsa") {
    EngineOptions eo;
    eo.num_dispatchers = static_cast<unsigned>(flags.dispatchers);
    eo.num_computers = static_cast<unsigned>(flags.computers);
    eo.max_supersteps = flags.supersteps;
    eo.checkpoint_each_superstep = flags.checkpoint;
    auto result = Engine::run(graph, *program, eo);
    if (!result.is_ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    const RunResult& r = result.value();
    std::printf("gpsa: %llu supersteps, %llu messages, %.4f s%s\n",
                static_cast<unsigned long long>(r.supersteps),
                static_cast<unsigned long long>(r.total_messages),
                r.elapsed_seconds, r.converged ? " (converged)" : "");
    const std::string trace = config.get_string("trace", "");
    if (!trace.empty()) {
      const Status st = write_run_trace_csv(r, trace);
      if (!st.is_ok()) {
        std::fprintf(stderr, "trace: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("trace written to %s\n", trace.c_str());
    }
    values = r.values;
  } else if (engine == "graphchi" || engine == "xstream") {
    BaselineOptions bo;
    bo.max_supersteps = flags.supersteps;
    auto result = engine == "graphchi"
                      ? PswEngine::run(graph, *program, bo)
                      : XStreamEngine::run(graph, *program, bo);
    if (!result.is_ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    std::printf("%s: %llu supersteps, %llu messages, %.4f s\n",
                engine.c_str(),
                static_cast<unsigned long long>(result.value().supersteps),
                static_cast<unsigned long long>(
                    result.value().total_messages),
                result.value().elapsed_seconds);
    values = std::move(result.value().values);
  } else if (engine == "cluster") {
    ClusterOptions co;
    co.num_nodes = static_cast<unsigned>(flags.nodes);
    co.max_supersteps = flags.supersteps;
    auto result = ClusterEngine::run(graph, *program, co);
    if (!result.is_ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   result.status().to_string().c_str());
      return 1;
    }
    const ClusterRunResult& r = result.value();
    std::printf("cluster(%u nodes): %llu supersteps, %llu messages "
                "(%.1f%% remote), send imbalance %.2f, %llu bytes on wire\n",
                co.num_nodes,
                static_cast<unsigned long long>(r.supersteps),
                static_cast<unsigned long long>(r.total_messages),
                100.0 * static_cast<double>(r.remote_messages) /
                    static_cast<double>(
                        std::max<std::uint64_t>(r.total_messages, 1)),
                r.send_imbalance(),
                static_cast<unsigned long long>(r.bytes_on_wire));
    values = r.values;
  } else if (engine == "reference") {
    const ReferenceResult r =
        reference_run(Csr::from_edges(graph), *program, flags.supersteps);
    std::printf("reference: %llu supersteps, %llu messages\n",
                static_cast<unsigned long long>(r.supersteps),
                static_cast<unsigned long long>(r.total_messages));
    values = r.values;
  } else {
    std::fprintf(stderr, "unknown --engine=%s\n", engine.c_str());
    return 2;
  }

  print_top(values, algo, top);
  return 0;
}
