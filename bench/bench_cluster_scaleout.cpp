// Cluster scale-out bench (paper §III.B motivation c, and the
// introduction's distributed-systems cost analysis): communication volume,
// per-node load balance, and bytes on wire as the in-process cluster grows
// (ranks as threads over socketpairs) — the costs that motivate the
// single-machine design.
//
// Second section: the cluster across processes (DESIGN.md §14). The
// bench re-execs itself as GPSA_CLUSTER_RANKS localhost processes
// (GPSA_CLUSTER_RANK in the environment marks a child), runs the same
// PageRank over TCP, and cross-checks it against the in-process run:
// bit-identical values and equal supersteps, messages, wire bytes and
// frames. GPSA_BENCH_JSON lands both views for the CI gate
// (scripts/check_cluster_net.py).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "cluster/cluster_engine.hpp"
#include "cluster/cluster_net.hpp"
#include "harness/bench_json.hpp"
#include "harness/experiment.hpp"
#include "metrics/table.hpp"

namespace {

using namespace gpsa;

constexpr unsigned kNetRanks = 3;
constexpr std::uint64_t kNetSupersteps = 5;
/// Scheduler workers per rank on both sides of the cross-check, so the
/// gate compares multi-worker ranks frame for frame.
constexpr unsigned kNetWorkers = 2;

EdgeList bench_graph(const ExperimentOptions& exp) {
  return generate_paper_graph(PaperGraph::kPokec, exp.scale, exp.seed);
}

/// Child mode: one rank of the real-socket run. Rank 0 reports its result
/// to GPSA_CLUSTER_NET_OUT for the parent to cross-check.
int run_child_rank() {
  const auto net = ClusterNetOptions::from_env();
  if (!net.is_ok()) {
    std::fprintf(stderr, "%s\n", net.status().to_string().c_str());
    return 1;
  }
  const ExperimentOptions exp = ExperimentOptions::from_env();
  const EdgeList graph = bench_graph(exp);
  const PageRankProgram program(kNetSupersteps);
  ClusterOptions options;
  options.max_supersteps = kNetSupersteps;
  options.scheduler_workers = kNetWorkers;
  const auto result = run_cluster_rank(graph, program, options, net.value());
  if (!result.is_ok()) {
    std::fprintf(stderr, "rank %u: %s\n", net.value().rank,
                 result.status().to_string().c_str());
    return 1;
  }
  const char* out_path = std::getenv("GPSA_CLUSTER_NET_OUT");
  if (net.value().rank == 0 && out_path != nullptr) {
    const ClusterRunResult& r = result.value();
    std::ofstream out(out_path, std::ios::trunc);
    out << "supersteps " << r.supersteps << "\n";
    out << "total_messages " << r.total_messages << "\n";
    out << "bytes_on_wire " << r.bytes_on_wire << "\n";
    out << "frames_sent " << r.frames_sent << "\n";
    out << "elapsed_seconds " << r.elapsed_seconds << "\n";
    out << "superstep_wire";
    for (const std::uint64_t bytes : r.superstep_wire_bytes) {
      out << " " << bytes;
    }
    out << "\n";
    out << "values";
    for (const Payload value : r.values) {
      out << " " << value;
    }
    out << "\n";
    if (!out.good()) {
      return 1;
    }
  }
  return 0;
}

struct NetReport {
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t frames_sent = 0;
  double elapsed_seconds = 0.0;
  std::vector<std::uint64_t> superstep_wire;
  std::vector<Payload> values;
};

bool parse_net_report(const std::string& path, NetReport& out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "supersteps") {
      fields >> out.supersteps;
    } else if (key == "total_messages") {
      fields >> out.total_messages;
    } else if (key == "bytes_on_wire") {
      fields >> out.bytes_on_wire;
    } else if (key == "frames_sent") {
      fields >> out.frames_sent;
    } else if (key == "elapsed_seconds") {
      fields >> out.elapsed_seconds;
    } else if (key == "superstep_wire") {
      std::uint64_t v = 0;
      while (fields >> v) {
        out.superstep_wire.push_back(v);
      }
    } else if (key == "values") {
      Payload v = 0;
      while (fields >> v) {
        out.values.push_back(v);
      }
    }
  }
  return out.supersteps > 0 && !out.values.empty();
}

/// Parent mode: spawn kNetRanks copies of this binary over localhost
/// sockets and cross-check against the in-process run.
bool run_net_section(const EdgeList& graph, JsonWriter& json) {
  std::printf("== Real network data plane: %u localhost processes, %u "
              "workers each ==\n\n",
              kNetRanks, kNetWorkers);

  const PageRankProgram program(kNetSupersteps);
  ClusterOptions options;
  options.num_nodes = kNetRanks;
  options.max_supersteps = kNetSupersteps;
  options.scheduler_workers = kNetWorkers;
  const auto in_process = ClusterEngine::run(graph, program, options);
  if (!in_process.is_ok()) {
    std::fprintf(stderr, "%s\n", in_process.status().to_string().c_str());
    return false;
  }

  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return false;
  }
  self[len] = '\0';
  const std::uint16_t port =
      static_cast<std::uint16_t>(33000 + (::getpid() % 8000));
  const std::string report_path =
      "/tmp/gpsa_cluster_net_" + std::to_string(::getpid()) + ".txt";

  std::vector<pid_t> pids;
  for (unsigned rank = 0; rank < kNetRanks; ++rank) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::setenv("GPSA_CLUSTER_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("GPSA_CLUSTER_RANKS", std::to_string(kNetRanks).c_str(), 1);
      ::setenv("GPSA_CLUSTER_PORT", std::to_string(port).c_str(), 1);
      ::setenv("GPSA_CLUSTER_NET_OUT", report_path.c_str(), 1);
      ::unsetenv("GPSA_BENCH_JSON");  // children must not clobber the report
      ::execl(self, self, static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  bool children_ok = true;
  for (unsigned rank = 0; rank < kNetRanks; ++rank) {
    int wait_status = 0;
    if (::waitpid(pids[rank], &wait_status, 0) != pids[rank] ||
        !WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
      std::fprintf(stderr, "rank %u exited abnormally\n", rank);
      children_ok = false;
    }
  }
  NetReport net;
  if (!children_ok || !parse_net_report(report_path, net)) {
    std::fprintf(stderr, "net run failed or produced no report\n");
    std::remove(report_path.c_str());
    return false;
  }
  std::remove(report_path.c_str());

  const ClusterRunResult& m = in_process.value();
  const bool bit_identity = net.values == m.values;

  TextTable table({"run", "supersteps", "messages", "wire bytes", "frames",
                   "elapsed (s)"});
  table.add_row({"in-process (socketpairs)", TextTable::num(m.supersteps),
                 TextTable::num(m.total_messages),
                 TextTable::num(m.bytes_on_wire), TextTable::num(m.frames_sent),
                 TextTable::num(m.elapsed_seconds, 4)});
  table.add_row({"processes (TCP)", TextTable::num(net.supersteps),
                 TextTable::num(net.total_messages),
                 TextTable::num(net.bytes_on_wire),
                 TextTable::num(net.frames_sent),
                 TextTable::num(net.elapsed_seconds, 4)});
  table.print();
  std::printf("\nbit-identical values: %s\n\n", bit_identity ? "yes" : "NO");

  json.key("net").begin_object();
  json.key("ranks").value(kNetRanks);
  json.key("workers_per_rank").value(kNetWorkers);
  json.key("children_ok").value(children_ok);
  json.key("bit_identity").value(bit_identity);
  json.key("supersteps").value(net.supersteps);
  json.key("total_messages").value(net.total_messages);
  json.key("bytes_on_wire").value(net.bytes_on_wire);
  json.key("frames").value(net.frames_sent);
  json.key("in_process_supersteps").value(m.supersteps);
  json.key("in_process_total_messages").value(m.total_messages);
  json.key("in_process_bytes_on_wire").value(m.bytes_on_wire);
  json.key("in_process_frames").value(m.frames_sent);
  json.key("elapsed_seconds").value(net.elapsed_seconds);
  json.key("superstep_wire_bytes").begin_array();
  for (const std::uint64_t bytes : net.superstep_wire) {
    json.value(bytes);
  }
  json.end_array();
  json.end_object();
  return bit_identity;
}

}  // namespace

int main() {
  if (std::getenv("GPSA_CLUSTER_RANK") != nullptr) {
    return run_child_rank();
  }
  const ExperimentOptions exp = ExperimentOptions::from_env();
  const EdgeList graph = bench_graph(exp);
  const PageRankProgram program(5);

  std::printf("== Cluster scale-out: PageRank, pokec stand-in (scale %.3g) "
              "==\n\n",
              exp.scale);

  TextTable table({"nodes", "partition", "remote msgs", "remote %",
                   "send imbalance", "wire (KB)", "elapsed (s)"});
  bool ok = true;
  for (const unsigned nodes : {1U, 2U, 4U, 8U, 16U}) {
    for (const auto strategy : {PartitionStrategy::kUniformVertices,
                                PartitionStrategy::kBalancedEdges}) {
      ClusterOptions co;
      co.num_nodes = nodes;
      co.partition = strategy;
      co.max_supersteps = 5;
      const auto result = ClusterEngine::run(graph, program, co);
      if (!result.is_ok()) {
        std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
        ok = false;
        continue;
      }
      const ClusterRunResult& r = result.value();
      table.add_row(
          {TextTable::num(std::uint64_t{nodes}),
           strategy == PartitionStrategy::kUniformVertices ? "uniform"
                                                           : "edge-balanced",
           TextTable::num(r.remote_messages),
           TextTable::num(100.0 * static_cast<double>(r.remote_messages) /
                              static_cast<double>(
                                  std::max<std::uint64_t>(r.total_messages,
                                                          1)),
                          1) +
               "%",
           TextTable::num(r.send_imbalance(), 2),
           TextTable::num(static_cast<double>(r.bytes_on_wire) / 1024.0, 1),
           TextTable::num(r.elapsed_seconds, 4)});
    }
  }
  table.print();
  std::printf("\nremote share approaches (nodes-1)/nodes for random "
              "partitions — the communication cost the paper's introduction "
              "cites as a reason to stay on one machine.\n\n");

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("cluster_scaleout");
  if (!run_net_section(graph, json)) {
    ok = false;
  }
  json.end_object();
  const Status written = write_bench_json(json);
  if (!written.is_ok()) {
    std::fprintf(stderr, "%s\n", written.to_string().c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
