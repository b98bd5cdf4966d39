#include "harness/experiment.hpp"

#include <memory>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "baselines/xstream/xstream_engine.hpp"
#include "core/engine.hpp"
#include "metrics/cpu_monitor.hpp"
#include "metrics/table.hpp"
#include "util/knobs.hpp"
#include "util/logging.hpp"
#include "util/thread.hpp"

namespace gpsa {

std::string system_name(SystemKind system) {
  switch (system) {
    case SystemKind::kGpsa:
      return "GPSA";
    case SystemKind::kGraphChi:
      return "GraphChi-PSW";
    case SystemKind::kXStream:
      return "X-Stream";
  }
  return "?";
}

std::string algo_name(AlgoKind algo) {
  switch (algo) {
    case AlgoKind::kPageRank:
      return "PageRank";
    case AlgoKind::kConnectedComponents:
      return "CC";
    case AlgoKind::kBfs:
      return "BFS";
  }
  return "?";
}

std::vector<SystemKind> all_systems() {
  return {SystemKind::kGpsa, SystemKind::kGraphChi, SystemKind::kXStream};
}

std::vector<AlgoKind> paper_algos() {
  return {AlgoKind::kPageRank, AlgoKind::kConnectedComponents,
          AlgoKind::kBfs};
}

ExperimentOptions ExperimentOptions::from_env() {
  ExperimentOptions out;
  out.scale = knob_or_default<double>("GPSA_BENCH_SCALE");
  out.runs =
      static_cast<unsigned>(knob_or_default<std::uint64_t>("GPSA_BENCH_RUNS"));
  return out;
}

namespace {

std::unique_ptr<Program> make_program(AlgoKind algo,
                                      std::uint64_t supersteps) {
  switch (algo) {
    case AlgoKind::kPageRank:
      return std::make_unique<PageRankProgram>(supersteps);
    case AlgoKind::kConnectedComponents:
      return std::make_unique<ConnectedComponentsProgram>();
    case AlgoKind::kBfs:
      return std::make_unique<BfsProgram>(/*root=*/0);
  }
  GPSA_UNREACHABLE("invalid AlgoKind");
}

struct SingleRun {
  double seconds = 0.0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t edges_streamed = 0;
  IoStats io;
  std::uint64_t working_set = 0;
};

Result<SingleRun> run_system_once(SystemKind system, const EdgeList& graph,
                                  const Program& program,
                                  const ExperimentOptions& options) {
  SingleRun out;
  switch (system) {
    case SystemKind::kGpsa: {
      EngineOptions eo;
      const unsigned threads = options.threads != 0 ? options.threads
                                                    : default_worker_count();
      eo.num_dispatchers = std::max(1U, threads);
      eo.num_computers = std::max(1U, threads);
      eo.scheduler_workers = threads;
      eo.max_supersteps = options.supersteps;
      GPSA_ASSIGN_OR_RETURN(const RunResult r,
                            Engine::run(graph, program, eo));
      out.seconds = r.elapsed_seconds;
      out.supersteps = r.supersteps;
      out.messages = r.total_messages;
      out.io = r.io;
      out.working_set = r.working_set_bytes;
      return out;
    }
    case SystemKind::kGraphChi: {
      BaselineOptions bo;
      bo.threads = options.threads;
      bo.max_supersteps = options.supersteps;
      GPSA_ASSIGN_OR_RETURN(const BaselineResult r,
                            PswEngine::run(graph, program, bo));
      out.seconds = r.elapsed_seconds;
      out.supersteps = r.supersteps;
      out.messages = r.total_messages;
      out.io = r.io;
      out.working_set = r.working_set_bytes;
      return out;
    }
    case SystemKind::kXStream: {
      BaselineOptions bo;
      bo.threads = options.threads;
      bo.max_supersteps = options.supersteps;
      GPSA_ASSIGN_OR_RETURN(const BaselineResult r,
                            XStreamEngine::run(graph, program, bo));
      out.seconds = r.elapsed_seconds;
      out.supersteps = r.supersteps;
      out.messages = r.total_messages;
      out.edges_streamed = r.edges_streamed;
      out.io = r.io;
      out.working_set = r.working_set_bytes;
      return out;
    }
  }
  GPSA_UNREACHABLE("invalid SystemKind");
}

}  // namespace

EdgeList symmetrize(const EdgeList& graph) {
  EdgeList out;
  out.ensure_vertices(graph.num_vertices());
  out.edges().reserve(graph.num_edges() * 2);
  for (const Edge& e : graph.edges()) {
    out.add_edge(e.src, e.dst);
    out.add_edge(e.dst, e.src);
  }
  out.canonicalize();
  return out;
}

EdgeList prepare_graph(PaperGraph dataset, AlgoKind algo,
                       const ExperimentOptions& options) {
  EdgeList graph =
      generate_paper_graph(dataset, options.scale, options.seed);
  if (algo == AlgoKind::kConnectedComponents) {
    return symmetrize(graph);
  }
  return graph;
}

Result<CellResult> run_cell(SystemKind system, AlgoKind algo,
                            const EdgeList& graph,
                            const ExperimentOptions& options) {
  const auto program = make_program(algo, options.supersteps);
  CellResult cell;
  cell.system = system;
  cell.algo = algo;
  double total_seconds = 0.0;
  double cpu_percent = 0.0;
  double cpu_peak = 0.0;
  for (unsigned r = 0; r < options.runs; ++r) {
    std::optional<CpuMonitor> monitor;
    if (options.measure_cpu) {
      monitor.emplace();
      monitor->start();
    }
    GPSA_ASSIGN_OR_RETURN(const SingleRun run,
                          run_system_once(system, graph, *program, options));
    if (monitor) {
      const CpuMonitor::Report report = monitor->stop();
      cpu_percent += report.mean_percent_of_machine;
      cpu_peak = std::max(cpu_peak, report.peak_cores);
    }
    total_seconds += run.seconds;
    cell.supersteps = run.supersteps;
    cell.messages = run.messages;
    cell.edges_streamed = run.edges_streamed;
    cell.io_bytes = run.io.total();
    cell.working_set_bytes = run.working_set;
  }
  cell.avg_seconds = total_seconds / options.runs;
  cell.avg_superstep_seconds =
      cell.supersteps == 0
          ? 0.0
          : cell.avg_seconds / static_cast<double>(cell.supersteps);
  {
    IoStats io;
    io.bytes_read = cell.io_bytes;  // priced as one total transfer volume
    cell.modeled_seconds = modeled_out_of_core_seconds(
        cell.avg_seconds, io, cell.working_set_bytes);
  }
  if (options.measure_cpu) {
    cell.cpu_mean_percent = cpu_percent / options.runs;
    cell.cpu_peak_cores = cpu_peak;
  }
  return cell;
}

Result<std::vector<CellResult>> run_figure(PaperGraph dataset,
                                           const ExperimentOptions& options,
                                           const std::string& title) {
  const DatasetSpec spec = paper_dataset_spec(dataset);
  std::vector<CellResult> cells;
  TextTable table({"algorithm", "system", "measured (s)", "io (MB)",
                   "modeled ooc (s)", "vs GPSA", "supersteps", "messages"});
  for (AlgoKind algo : paper_algos()) {
    const EdgeList graph = prepare_graph(dataset, algo, options);
    double gpsa_modeled = 0.0;
    for (SystemKind system : all_systems()) {
      GPSA_ASSIGN_OR_RETURN(const CellResult cell,
                            run_cell(system, algo, graph, options));
      cells.push_back(cell);
      if (system == SystemKind::kGpsa) {
        gpsa_modeled = cell.modeled_seconds;
      }
      const double ratio =
          gpsa_modeled > 0.0 ? cell.modeled_seconds / gpsa_modeled : 1.0;
      table.add_row({algo_name(algo), system_name(system),
                     TextTable::num(cell.avg_seconds, 4),
                     TextTable::num(static_cast<double>(cell.io_bytes) /
                                        (1024.0 * 1024.0),
                                    1),
                     TextTable::num(cell.modeled_seconds, 4),
                     TextTable::num(ratio, 2) + "x",
                     TextTable::num(cell.supersteps),
                     TextTable::num(cell.messages)});
    }
  }
  std::printf("== %s — dataset %s (stand-in, scale %.3g, |V| target %u) ==\n",
              title.c_str(), spec.name.c_str(), options.scale,
              spec.stand_in_vertices);
  table.print();
  std::printf(
      "\nmodeled ooc: measured time + fundamental I/O volume priced at the "
      "paper's disk class (GPSA_MODEL_DISK_MBPS, default 120); see "
      "metrics/io_model.hpp and EXPERIMENTS.md.\n\n");
  return cells;
}

}  // namespace gpsa
