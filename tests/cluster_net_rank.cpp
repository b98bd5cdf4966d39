// One rank of a multi-process cluster run — the fork+exec target of
// tests/test_net.cpp. Every instance builds the
// same deterministic graph, reads its cluster coordinates from the
// GPSA_CLUSTER_* environment (ClusterNetOptions::from_env), runs
// run_cluster_rank, and exits 0 on success / 1 on error. A text summary
// of this rank's result (and, on rank 0, the full value vector) goes to
// GPSA_NET_HELPER_SUMMARY when set, so the parent can diff the run
// against its in-process oracle. An optional first argument sets
// ClusterOptions::scheduler_workers.
//
// Helper-specific environment:
//   GPSA_NET_HELPER_PROGRAM   pagerank | pagerank_delta | bfs [pagerank]
//   GPSA_NET_HELPER_STORE     value-store directory         [scratch]
//   GPSA_NET_HELPER_SUMMARY   result summary path           [none]
//   GPSA_NET_HELPER_CRASH_AT  _exit(3) mid-superstep N      [off]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "cluster/cluster_net.hpp"
#include "graph/generators.hpp"

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "cluster_net_rank: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpsa;

  auto net = ClusterNetOptions::from_env();
  if (!net.is_ok()) {
    return fail(net.status().to_string());
  }

  std::unique_ptr<Program> program;
  std::string program_name = "pagerank";
  if (const char* env = std::getenv("GPSA_NET_HELPER_PROGRAM")) {
    program_name = env;
  }
  if (program_name == "pagerank") {
    program = std::make_unique<PageRankProgram>(5);
  } else if (program_name == "pagerank_delta") {
    // Must match the oracle program in tests/test_net.cpp.
    program = std::make_unique<PageRankDeltaProgram>(100, 0.85F, 1e-4F);
  } else if (program_name == "bfs") {
    program = std::make_unique<BfsProgram>(0);
  } else {
    return fail("unknown GPSA_NET_HELPER_PROGRAM: " + program_name);
  }

  ClusterOptions options;
  if (argc > 1) {
    options.scheduler_workers =
        static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
  }
  if (const char* store = std::getenv("GPSA_NET_HELPER_STORE")) {
    options.value_store_dir = store;
  }
  if (const char* crash = std::getenv("GPSA_NET_HELPER_CRASH_AT")) {
    set_cluster_net_crash_at_superstep(std::atoi(crash));
  }

  // Must match the oracle graph in tests/test_net.cpp byte for byte.
  const EdgeList graph = rmat(8, 2000, 91);

  const auto result =
      run_cluster_rank(graph, *program, options, net.value());
  if (!result.is_ok()) {
    return fail(result.status().to_string());
  }

  if (const char* summary_path = std::getenv("GPSA_NET_HELPER_SUMMARY")) {
    const ClusterRunResult& r = result.value();
    std::ofstream out(summary_path, std::ios::trunc);
    if (!out) {
      return fail(std::string("cannot write summary: ") + summary_path);
    }
    auto write_series = [&out](const char* key,
                               const std::vector<std::uint64_t>& series) {
      out << key;
      for (const std::uint64_t value : series) {
        out << " " << value;
      }
      out << "\n";
    };
    out << "supersteps " << r.supersteps << "\n";
    out << "total_messages " << r.total_messages << "\n";
    out << "converged " << (r.converged ? 1 : 0) << "\n";
    out << "remote_messages " << r.remote_messages << "\n";
    out << "remote_batches " << r.remote_batches << "\n";
    out << "bytes_on_wire " << r.bytes_on_wire << "\n";
    out << "frames_sent " << r.frames_sent << "\n";
    write_series("superstep_wire", r.superstep_wire_bytes);
    write_series("node_messages_sent", r.node_messages_sent);
    write_series("node_messages_received", r.node_messages_received);
    if (net.value().rank == 0) {
      out << "values";
      for (const Payload value : r.values) {
        out << " " << value;
      }
      out << "\n";
    }
    if (!out.good()) {
      return fail("summary write failed");
    }
  }
  return 0;
}
