// gpsa_perfbench: the measuring program of the repository benchmark.
//
// Runs one workload for a fixed time against the library's public entry
// points (Engine::run_from_csr, GraphService::submit/wait,
// run_cluster_rank), checks every result it can against the sequential
// reference executor, and writes the raw per-job records as one JSON
// document. perfbench/summarize.py turns that document into metrics;
// perfbench/run.py builds this binary and ties the two together.
//
//   gpsa_perfbench --workload pagerank-google --seed 1 --seconds 10
//                  --trace 0 --work-dir DIR --out RAW.json
//                  [--trace-file TRACE.json]
//
// Workloads (see perfbench/README.md for why each exists):
//   pagerank-google  closed loop, 20-superstep PageRank jobs, google stand-in
//   bfs-twitter      closed loop, BFS jobs from seeded roots, twitter stand-in
//   service-pokec    open loop, Poisson BFS/SSSP queries beside a resident
//                    PageRank in one GraphService, pokec stand-in
//   cluster2-pokec   closed loop, fixed-superstep PageRank over two rank
//                    processes on localhost sockets, pokec stand-in
//
// With --trace 1 every other job is traced: the program records Chrome
// trace-event spans around its calls into the library, per-superstep child
// spans rebuilt from RunResult::superstep_seconds, and a getrusage delta
// per job. The untraced jobs of the same run give trace.overhead_frac. The
// traced run also times single calls into each layer (open, scan, value
// file create, reference executor, GraphChi baseline) outside the stream.
#include <arpa/inet.h>
#include <execinfo.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "baselines/graphchi/psw_engine.hpp"
#include "cluster/cluster_net.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "harness/bench_json.hpp"
#include "io/csr_stream.hpp"
#include "service/graph_service.hpp"
#include "storage/value_file.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace gpsa {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- Pinned configuration --------------------------------------------------
// Busy threads across all processes of a workload stay at or below 4 (the
// load generator is one mostly-sleeping thread on top).
constexpr unsigned kDispatchers = 2;
constexpr unsigned kComputers = 2;
constexpr unsigned kEngineWorkers = 4;
constexpr unsigned kServiceWorkers = 3;
constexpr std::size_t kServiceConcurrentJobs = 4;  // resident + 3 queries
constexpr std::size_t kServiceMaxQueue = 256;
constexpr unsigned kClusterRanks = 2;
constexpr unsigned kClusterWorkers = 2;  // per rank

constexpr std::uint64_t kPageRankIterations = 20;
constexpr std::uint64_t kClusterSupersteps = 10;
// Times set-up runs per process; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Untimed warm-up before each stream: jobs (or queries) run back to back
// for this long. The first second of load after the single-threaded
// set-up runs up to ~1.8x slower and would otherwise set every tail.
constexpr double kWarmupSeconds = 1.5;
// Distinct BFS roots per bfs-twitter run; every job draws one of them, and
// each has its reference result computed once before the stream.
constexpr std::size_t kBfsRootPool = 20;
// Query arrival rates (per second) for service-pokec. On a 4-vCPU Xeon
// host this configuration saturates near 40-45 queries/s with the
// resident PageRank running (the backlog then grows without draining):
// nominal is well under that, high is below the knee.
constexpr double kServiceNominalRate = 15.0;
constexpr double kServiceHighRate = 25.0;
// Share of queries that are BFS; the rest are SSSP, which runs about twice
// as long. An uneven mix keeps the median inside one mode.
constexpr double kServiceBfsShare = 0.75;
// service-pokec runs its stream in this many segments, each on a freshly
// set-up service instance. A run's instances settle into different
// scheduling states (their medians differ by up to ~25% on a shared
// 4-vCPU host), so a run pools several of them.
constexpr int kServiceSegments = 10;
// One query in this many keeps its values for the reference check.
constexpr std::uint64_t kServiceSampleEvery = 16;
// PageRank is compared within this relative tolerance: the float sum fold
// runs in the order the schedule delivers messages at 2x2 actors, so
// results are not bit-identical to the vertex-ordered reference.
constexpr double kPageRankRelTol = 1e-3;
constexpr double kPageRankAbsTol = 1e-9;

// --- Small helpers -----------------------------------------------------------

double seconds_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double median_of(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
/// peak_rss_mb() reports the peak since this call. Where the reset is
/// refused, peak_rss_mb() reports the lifetime peak instead.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t cache_bytes(int index) {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                   std::to_string(index) + "/size");
  std::string text;
  if (!(in >> text) || text.empty()) {
    return 0;
  }
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': value <<= 10; break;
    case 'M': value <<= 20; break;
    case 'G': value <<= 30; break;
    default: break;
  }
  return value;
}

// --- Chrome trace-event spans ------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  void span(const std::string& name, const std::string& cat,
            Clock::time_point begin, Clock::time_point end, int tid,
            std::string args_json = "{}") {
    if (!enabled_) {
      return;
    }
    spans_.push_back(Span{name, cat, micros(begin), micros(end) - micros(begin),
                          tid, std::move(args_json)});
  }

  /// Same, with the start given as seconds after `begin`.
  void span_at(const std::string& name, const std::string& cat,
               Clock::time_point begin, double offset_s, double duration_s,
               int tid, std::string args_json = "{}") {
    if (!enabled_) {
      return;
    }
    spans_.push_back(Span{name, cat, micros(begin) + offset_s * 1e6,
                          duration_s * 1e6, tid, std::move(args_json)});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,",
                    s.tid, s.ts_us, std::max(0.0, s.dur_us));
      out << head << "\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\",\"args\":" << s.args << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return out.good();
  }

 private:
  struct Span {
    std::string name;
    std::string cat;
    double ts_us;
    double dur_us;
    int tid;
    std::string args;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
  std::string trace_file;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else if (key == "--out") {
      args.out = val;
    } else if (key == "--trace-file") {
      args.trace_file = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return !args.workload.empty() && !args.work_dir.empty() &&
         !args.out.empty() && args.seconds > 0.0 && argc % 2 == 1;
}

// --- Records -----------------------------------------------------------------

/// One measured operation (a closed-loop job or a service query).
struct JobRecord {
  std::string kind;   // pagerank | bfs | sssp
  std::string phase;  // closed | nominal | high
  std::uint64_t index = 0;
  std::uint64_t root = 0;
  bool traced = false;
  double wall_s = 0.0;     // caller-seen call time (closed loop)
  double lat_s = 0.0;      // due time -> completion
  double elapsed_s = 0.0;  // RunResult::elapsed_seconds
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t edges_touched = 0;
  std::vector<double> superstep_s;
  double io_read_bytes = 0.0;
  double stall_s = 0.0;
  double readahead_hit_rate = 1.0;
  double dispatch_busy_s = 0.0;
  double compute_busy_s = 0.0;
  std::uint64_t pool_leases = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_steady_misses = 0;
  double cpu_s = -1.0;  // traced jobs only
  double rss_mb = 0.0;  // peak RSS during the job (max over ranks)
  // Service queries.
  double e2e_s = 0.0;
  double queue_s = 0.0;
  double submit_s = 0.0;
  double lag_s = 0.0;
  // Cluster jobs.
  std::uint64_t remote_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  double send_imbalance = 0.0;
};

struct Failure {
  std::string kind;  // wrong | error | rejected
  std::uint64_t job = 0;
  std::string detail;
};

struct Report {
  Args args;
  VertexId vertices = 0;
  EdgeCount edges = 0;
  double gen_s = 0.0;
  std::vector<std::uint64_t> roots;
  std::vector<double> setup_s;
  std::vector<JobRecord> jobs;
  std::vector<Failure> failures;
  std::uint64_t attempted = 0;
  double stream_s = 0.0;
  double stream_cpu_s = 0.0;  // process CPU time over the stream
  double rss_mb = 0.0;  // peak over the whole stream
  // Service: peak RSS of each inter-arrival window.
  std::vector<double> rss_windows;
  std::uint64_t working_set_bytes = 0;
  std::uint64_t csr_file_bytes = 0;
  // Modes the runs actually used (from RunResult).
  std::string exec = "n/a";
  std::string routing = "n/a";
  std::string io_backend = "n/a";
  std::string csr_format = "n/a";
  std::string csr_order = "n/a";
  std::string pool = "n/a";
  // Service.
  std::uint64_t resident_supersteps = 0;  // completed during the stream
  std::vector<std::uint64_t> backlog_nominal;
  std::vector<std::uint64_t> backlog_high;
  // Traced-run layer probes (name -> value), in insertion order.
  std::vector<std::pair<std::string, double>> probes;
};

void note_modes(Report& report, const RunResult& r) {
  report.exec = exec_mode_name(r.exec);
  report.routing = message_routing_name(r.routing);
  report.io_backend = io_backend_name(r.io_backend);
  report.csr_format = csr_format_name(r.csr_format);
  report.csr_order = csr_order_name(r.csr_order);
  report.pool = r.pool.enabled ? "on" : "off";
  report.working_set_bytes = r.working_set_bytes;
  report.csr_file_bytes = r.csr_file_bytes;
}

void fill_from_run(JobRecord& job, const RunResult& r) {
  job.elapsed_s = r.elapsed_seconds;
  job.supersteps = r.supersteps;
  job.messages = r.total_messages;
  job.edges_touched = 0;
  for (const std::uint64_t e : r.superstep_edges_touched) {
    job.edges_touched += e;
  }
  job.superstep_s = r.superstep_seconds;
  job.io_read_bytes = static_cast<double>(r.io.bytes_read);
  job.stall_s = r.prefetch.stall_seconds;
  job.readahead_hit_rate = r.readahead_hit_rate;
  for (const double busy : r.dispatcher_busy_seconds) {
    job.dispatch_busy_s = std::max(job.dispatch_busy_s, busy);
  }
  for (const double busy : r.computer_busy_seconds) {
    job.compute_busy_s = std::max(job.compute_busy_s, busy);
  }
  job.pool_leases = r.pool.leases;
  job.pool_hits = r.pool.hits;
  job.pool_steady_misses = r.pool.steady_misses;
}

/// Empty when `got` matches `want`; otherwise a description of the first
/// mismatch. PageRank compares as floats within the stated tolerance.
std::string compare_values(const std::vector<Payload>& got,
                           const std::vector<Payload>& want, bool as_float) {
  if (got.size() != want.size()) {
    return "value count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (!as_float) {
      if (got[v] != want[v]) {
        return "vertex " + std::to_string(v) + ": " + std::to_string(got[v]) +
               " != " + std::to_string(want[v]);
      }
      continue;
    }
    const double g = payload_to_float(got[v]);
    const double w = payload_to_float(want[v]);
    if (std::fabs(g - w) > kPageRankAbsTol + kPageRankRelTol * std::fabs(w)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "vertex %zu: %.9g vs %.9g", v, g, w);
      return buf;
    }
  }
  return {};
}

std::string span_args(const JobRecord& job) {
  std::ostringstream out;
  out << "{\"job\":" << job.index << ",\"kind\":\"" << job.kind
      << "\",\"supersteps\":" << job.supersteps
      << ",\"messages\":" << job.messages << "}";
  return out.str();
}

/// Rebuilds a traced job's layers as child spans: caller-side overhead,
/// one span per superstep, then the residual the supersteps do not cover.
/// The engine's elapsed window is taken to end when the call returns.
void trace_job(SpanLog& log, const JobRecord& job, Clock::time_point begin,
               Clock::time_point end, int tid) {
  log.span("job", "job", begin, end, tid, span_args(job));
  const double wall = seconds_since(begin, end);
  const double overhead = std::max(0.0, wall - job.elapsed_s);
  log.span_at("job.overhead", "core", begin, 0.0, overhead, tid);
  double offset = overhead;
  for (std::size_t s = 0; s < job.superstep_s.size(); ++s) {
    log.span_at("superstep", "core", begin, offset, job.superstep_s[s], tid,
                "{\"superstep\":" + std::to_string(s) + "}");
    offset += job.superstep_s[s];
  }
  log.span_at("job.residual", "core", begin, offset,
              std::max(0.0, wall - offset), tid);
}

// --- Shared pieces -----------------------------------------------------------

PaperGraph workload_graph(const std::string& workload) {
  if (workload == "pagerank-google") {
    return PaperGraph::kGoogle;
  }
  if (workload == "bfs-twitter") {
    return PaperGraph::kTwitter2010;
  }
  return PaperGraph::kPokec;
}

EngineOptions engine_options(const std::string& work_dir) {
  EngineOptions options;
  options.num_dispatchers = kDispatchers;
  options.num_computers = kComputers;
  options.scheduler_workers = kEngineWorkers;
  options.work_dir = work_dir;
  return options;
}

std::vector<VertexId> vertices_with_out_edges(const Csr& csr) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) > 0) {
      out.push_back(v);
    }
  }
  return out;
}

/// Layer probes shared by every workload's traced run: open, full scan,
/// and value-file creation on the workload's CSR file.
bool probe_storage_layers(Report& report, const std::string& csr_path,
                          const std::string& work_dir, SpanLog& log) {
  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    auto reader = CsrFileReader::open(csr_path);
    const auto t1 = Clock::now();
    if (!reader.is_ok()) {
      std::fprintf(stderr, "open: %s\n", reader.status().to_string().c_str());
      return false;
    }
    log.span("graph.open", "graph", t0, t1, 2);
    open_ms.push_back(seconds_since(t0, t1) * 1e3);
  }
  report.probes.emplace_back("graph.open_ms", median_of(open_ms));

  auto reader = CsrFileReader::open(csr_path);
  auto io_config = IoOptions{}.resolve();
  if (!reader.is_ok() || !io_config.is_ok()) {
    return false;
  }
  auto backend = IoBackend::create(io_config.value());
  if (!backend.is_ok()) {
    std::fprintf(stderr, "io backend: %s\n",
                 backend.status().to_string().c_str());
    return false;
  }
  const CsrFileReader& csr = reader.value();
  const auto offsets = csr.record_offsets();
  std::vector<double> scan_mb_s;
  std::uint64_t checksum = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    auto stream = backend.value()->open_stream(csr.entry_path());
    if (!stream.is_ok()) {
      std::fprintf(stderr, "open_stream: %s\n",
                   stream.status().to_string().c_str());
      return false;
    }
    CsrEntryStream entries(std::move(stream).value(), csr);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      const std::uint64_t begin = offsets[v];
      const std::uint64_t count = offsets[v + 1] - begin;
      if (count == 0) {
        continue;
      }
      const std::int32_t* record = entries.fetch_record(begin, count);
      checksum += static_cast<std::uint32_t>(record[0]);
    }
    const auto t1 = Clock::now();
    log.span("io.scan", "io", t0, t1, 2);
    scan_mb_s.push_back(static_cast<double>(fs::file_size(csr.entry_path())) /
                        1e6 / seconds_since(t0, t1));
  }
  report.probes.emplace_back("io.scan_mb_s", median_of(scan_mb_s));
  std::printf("probe: full CSR scan checksum %llu\n",
              static_cast<unsigned long long>(checksum));

  std::vector<double> create_ms;
  const std::string value_path = work_dir + "/probe.values";
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    auto file = ValueFile::create(value_path, csr.num_vertices(), "perfbench");
    const auto t1 = Clock::now();
    if (!file.is_ok()) {
      std::fprintf(stderr, "value file: %s\n",
                   file.status().to_string().c_str());
      return false;
    }
    log.span("storage.value_create", "storage", t0, t1, 2);
    create_ms.push_back(seconds_since(t0, t1) * 1e3);
  }
  fs::remove(value_path);
  report.probes.emplace_back("storage.value_create_ms", median_of(create_ms));
  return true;
}

/// Times preprocess_edges_to_csr into `dir`; returns seconds (negative on
/// failure).
double preprocess(const EdgeList& graph, const std::string& dir,
                  SpanLog& log) {
  fs::create_directories(dir);
  const auto t0 = Clock::now();
  const Status status =
      preprocess_edges_to_csr(graph, dir + "/graph.csr", /*with_degree=*/true);
  const auto t1 = Clock::now();
  if (!status.is_ok()) {
    std::fprintf(stderr, "preprocess: %s\n", status.to_string().c_str());
    return -1.0;
  }
  log.span("setup.preprocess", "graph", t0, t1, 1);
  return seconds_since(t0, t1);
}

/// GraphChi PSW engine on the same job, for the COST-style ratio.
double psw_seconds(const EdgeList& graph, const Program& program,
                   const std::string& work_dir, SpanLog& log) {
  BaselineOptions options;
  options.threads = kEngineWorkers;
  options.work_dir = work_dir + "/psw";
  fs::create_directories(options.work_dir);
  const auto t0 = Clock::now();
  auto result = PswEngine::run(graph, program, options);
  const auto t1 = Clock::now();
  fs::remove_all(options.work_dir);
  if (!result.is_ok()) {
    std::fprintf(stderr, "psw: %s\n", result.status().to_string().c_str());
    return -1.0;
  }
  log.span("baselines.psw", "baselines", t0, t1, 2);
  return result.value().elapsed_seconds;
}

// --- Closed-loop engine workloads -------------------------------------------

int run_engine_workload(EdgeList input, Report& report, SpanLog& log) {
  const Args& args = report.args;
  const bool is_pagerank = args.workload == "pagerank-google";
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);

  // Checking data first: the in-memory CSR and reference results are
  // benchmark-side and freed before the stream so peak RSS is the system's.
  auto csr_mem = std::make_unique<Csr>(Csr::from_edges(input));
  std::vector<VertexId> roots;
  if (!is_pagerank) {
    const std::vector<VertexId> candidates = vertices_with_out_edges(*csr_mem);
    for (std::size_t i = 0; i < kBfsRootPool; ++i) {
      roots.push_back(candidates[rng.next_below(candidates.size())]);
    }
  }
  std::vector<std::vector<Payload>> want;
  std::vector<double> ref_s;
  if (is_pagerank) {
    const auto t0 = Clock::now();
    want.push_back(
        reference_run(*csr_mem, PageRankProgram(kPageRankIterations)).values);
    const auto t1 = Clock::now();
    log.span("apps.reference", "apps", t0, t1, 2);
    ref_s.push_back(seconds_since(t0, t1));
  } else {
    for (const VertexId root : roots) {
      const auto t0 = Clock::now();
      want.push_back(reference_run(*csr_mem, BfsProgram(root)).values);
      const auto t1 = Clock::now();
      log.span("apps.reference", "apps", t0, t1, 2);
      ref_s.push_back(seconds_since(t0, t1));
      report.roots.push_back(root);
    }
  }
  csr_mem.reset();

  auto make_program = [&](std::size_t slot) -> std::unique_ptr<Program> {
    if (is_pagerank) {
      return std::make_unique<PageRankProgram>(kPageRankIterations);
    }
    return std::make_unique<BfsProgram>(roots[slot]);
  };

  if (args.trace) {
    report.probes.emplace_back("apps.ref_ms", median_of(ref_s) * 1e3);
    const double psw = psw_seconds(input, *make_program(0), args.work_dir, log);
    if (psw < 0.0) {
      return 1;
    }
    report.probes.emplace_back("baselines.psw_s", psw);
  }

  // Set-up, repeated: preprocess + one warm-up job; the last copy serves
  // the stream.
  std::string csr_path;
  std::vector<double> preprocess_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string dir = args.work_dir + "/setup" + std::to_string(rep);
    const double pre = preprocess(input, dir, log);
    if (pre < 0.0) {
      return 1;
    }
    const auto t0 = Clock::now();
    auto warm = Engine::run_from_csr(dir + "/graph.csr", *make_program(0),
                                     engine_options(dir));
    const auto t1 = Clock::now();
    if (!warm.is_ok()) {
      std::fprintf(stderr, "warm-up: %s\n", warm.status().to_string().c_str());
      return 1;
    }
    log.span("setup.warmup", "core", t0, t1, 1);
    note_modes(report, warm.value());
    preprocess_s.push_back(pre);
    report.setup_s.push_back(pre + seconds_since(t0, t1));
    if (rep + 1 < kSetupRepeats) {
      fs::remove_all(dir);
    } else {
      csr_path = dir + "/graph.csr";
    }
  }
  if (args.trace) {
    report.probes.emplace_back("graph.preprocess_s", median_of(preprocess_s));
    if (!probe_storage_layers(report, csr_path, args.work_dir, log)) {
      return 1;
    }
  }
  input = EdgeList();  // the jobs read only the CSR file
  ::sync();            // set-up's file writes must not flush mid-stream

  const std::string job_dir = args.work_dir + "/jobs";
  fs::create_directories(job_dir);
  const EngineOptions options = engine_options(job_dir);
  for (const auto warm_end = after(Clock::now(), kWarmupSeconds);
       Clock::now() < warm_end;) {
    auto warm = Engine::run_from_csr(csr_path, *make_program(0), options);
    if (!warm.is_ok()) {
      std::fprintf(stderr, "warm-up: %s\n", warm.status().to_string().c_str());
      return 1;
    }
  }
  const double stream_cpu0 = cpu_seconds();
  const auto stream_begin = Clock::now();
  const auto deadline = after(stream_begin, args.seconds);
  double stream_peak_mb = 0.0;
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    const std::size_t slot =
        is_pagerank ? 0 : static_cast<std::size_t>(rng.next_below(roots.size()));
    const std::unique_ptr<Program> program = make_program(slot);
    JobRecord job;
    job.kind = is_pagerank ? "pagerank" : "bfs";
    job.phase = "closed";
    job.index = k;
    job.root = is_pagerank ? 0 : roots[slot];
    job.traced = args.trace && k % 2 == 1;
    reset_peak_rss();
    // Closed loop: a job is due the moment the client is ready to send it.
    const auto due = Clock::now();
    const double cpu0 = job.traced ? cpu_seconds() : 0.0;
    const auto t0 = Clock::now();
    auto result = Engine::run_from_csr(csr_path, *program, options);
    const auto t1 = Clock::now();
    if (job.traced) {
      job.cpu_s = cpu_seconds() - cpu0;
    }
    job.rss_mb = peak_rss_mb();
    ++report.attempted;
    job.wall_s = seconds_since(t0, t1);
    job.lat_s = seconds_since(due, t1);
    if (!result.is_ok()) {
      report.failures.push_back(
          {"error", k, result.status().to_string()});
      continue;
    }
    stream_peak_mb = std::max(stream_peak_mb, job.rss_mb);
    fill_from_run(job, result.value());
    const std::string mismatch =
        compare_values(result.value().values, want[slot], is_pagerank);
    if (!mismatch.empty()) {
      report.failures.push_back({"wrong", k,
                                 job.kind + " root " +
                                     std::to_string(job.root) + ": " +
                                     mismatch});
    }
    if (job.traced) {
      trace_job(log, job, t0, t1, 1);
    }
    report.jobs.push_back(std::move(job));
  }
  report.stream_s = seconds_since(stream_begin, Clock::now());
  report.stream_cpu_s = cpu_seconds() - stream_cpu0;
  report.rss_mb = stream_peak_mb;
  return 0;
}

// --- Open-loop service workload ---------------------------------------------

struct PendingQuery {
  JobId id = 0;
  JobRecord record;
  bool sampled = false;
  Clock::time_point submitted;
};

/// Opens one service instance on a fresh CSR under `dir` and runs one
/// warm-up query; appends the set-up time. Null on failure.
std::unique_ptr<GraphService> open_service(const EdgeList& input,
                                           const std::string& dir,
                                           VertexId warm_root, Report& report,
                                           std::vector<double>& preprocess_s,
                                           SpanLog& log) {
  const double pre = preprocess(input, dir, log);
  if (pre < 0.0) {
    return nullptr;
  }
  ServiceOptions so;
  so.num_dispatchers = kDispatchers;
  so.num_computers = kComputers;
  so.scheduler_workers = kServiceWorkers;
  so.max_concurrent_jobs = kServiceConcurrentJobs;
  so.max_queued_jobs = kServiceMaxQueue;
  so.work_dir = dir;
  const auto t0 = Clock::now();
  auto opened = GraphService::open(dir + "/graph.csr", so);
  const auto t1 = Clock::now();
  if (!opened.is_ok()) {
    std::fprintf(stderr, "service open: %s\n",
                 opened.status().to_string().c_str());
    return nullptr;
  }
  log.span("setup.service_open", "service", t0, t1, 1);
  std::unique_ptr<GraphService> service = std::move(opened).value();
  auto warm_id = service->submit(std::make_shared<const BfsProgram>(warm_root));
  if (!warm_id.is_ok()) {
    std::fprintf(stderr, "service warm-up: %s\n",
                 warm_id.status().to_string().c_str());
    return nullptr;
  }
  const auto warm = service->wait(warm_id.value());
  const auto t2 = Clock::now();
  if (!warm.is_ok() || warm.value().state != JobState::kDone) {
    std::fprintf(stderr, "service warm-up query failed\n");
    return nullptr;
  }
  log.span("setup.warmup", "service", t1, t2, 1);
  note_modes(report, *warm.value().result);
  service->forget(warm_id.value());
  preprocess_s.push_back(pre);
  report.setup_s.push_back(pre + seconds_since(t0, t2));
  return service;
}

/// One open-loop stream against `service`: a resident PageRank plus the
/// nominal-rate phase, then the high-rate phase, `seconds / 2` each. Query
/// records, failures and resident progress go into `report`.
bool run_service_stream(GraphService& service, const Csr& csr_mem,
                        const std::vector<VertexId>& candidates, double seconds,
                        Rng& rng, Report& report, std::vector<double>& ref_bfs_s,
                        SpanLog& log) {
  const Args& args = report.args;
  JobOptions resident_options;
  resident_options.retain_values = false;
  auto resident = service.submit(
      std::make_shared<const PageRankProgram>(1'000'000'000), resident_options);
  if (!resident.is_ok()) {
    std::fprintf(stderr, "resident: %s\n",
                 resident.status().to_string().c_str());
    return false;
  }
  while (service.poll(resident.value()).value().supersteps_completed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<PendingQuery> pending;
  reset_peak_rss();
  const double stream_cpu0 = cpu_seconds();
  const auto stream_begin = Clock::now();
  const std::uint64_t resident_before =
      service.poll(resident.value()).value().supersteps_completed;
  const double phase_s = seconds / 2.0;
  for (int phase = 0; phase < 2; ++phase) {
    const double rate = phase == 0 ? kServiceNominalRate : kServiceHighRate;
    std::vector<std::uint64_t>& backlog =
        phase == 0 ? report.backlog_nominal : report.backlog_high;
    const auto phase_begin = after(stream_begin, phase * phase_s);
    // Poisson arrivals conditioned on their count: rate * phase_s arrival
    // times drawn uniformly over the phase, and an exact BFS/SSSP split in
    // seeded order. Every seed then offers the same load.
    const auto arrivals = static_cast<std::size_t>(std::lround(rate * phase_s));
    std::vector<double> offsets(arrivals);
    for (double& offset : offsets) {
      offset = rng.next_double() * phase_s;
    }
    std::sort(offsets.begin(), offsets.end());
    std::vector<bool> is_bfs(arrivals, false);
    std::fill_n(is_bfs.begin(),
                std::lround(kServiceBfsShare * static_cast<double>(arrivals)),
                true);
    std::shuffle(is_bfs.begin(), is_bfs.end(), rng);
    for (std::size_t a = 0; a < arrivals; ++a) {
      PendingQuery q;
      q.record.index = report.attempted;
      q.record.phase = phase == 0 ? "nominal" : "high";
      q.record.kind = is_bfs[a] ? "bfs" : "sssp";
      q.record.root = candidates[rng.next_below(candidates.size())];
      q.record.traced = args.trace && q.record.index % 2 == 1;
      q.sampled = q.record.index % kServiceSampleEvery == 0;
      std::shared_ptr<const Program> program;
      if (q.record.kind == "bfs") {
        program = std::make_shared<const BfsProgram>(
            static_cast<VertexId>(q.record.root));
      } else {
        program = std::make_shared<const SsspProgram>(
            static_cast<VertexId>(q.record.root));
      }
      JobOptions jo;
      jo.retain_values = q.sampled;
      const auto due = after(phase_begin, offsets[a]);
      report.rss_windows.push_back(peak_rss_mb());
      reset_peak_rss();
      std::this_thread::sleep_until(due);
      const auto t0 = Clock::now();
      auto id = service.submit(std::move(program), jo);
      const auto t1 = Clock::now();
      ++report.attempted;
      q.record.lag_s = seconds_since(due, t0);
      q.record.submit_s = seconds_since(t0, t1);
      backlog.push_back(service.stats().queued);
      if (q.record.traced) {
        log.span("service.submit", "service", t0, t1, 1, span_args(q.record));
      }
      if (!id.is_ok()) {
        report.failures.push_back(
            {"rejected", q.record.index, id.status().to_string()});
        continue;
      }
      q.id = id.value();
      q.submitted = t0;
      pending.push_back(std::move(q));
    }
    std::this_thread::sleep_until(after(phase_begin, phase_s));
  }
  const auto stream_end = Clock::now();
  report.resident_supersteps +=
      service.poll(resident.value()).value().supersteps_completed -
      resident_before;
  report.stream_s += seconds_since(stream_begin, stream_end);
  report.stream_cpu_s += cpu_seconds() - stream_cpu0;

  for (PendingQuery& q : pending) {
    const auto t0 = Clock::now();
    auto status = service.wait(q.id);
    const auto t1 = Clock::now();
    if (q.record.traced) {
      log.span("service.wait", "service", t0, t1, 1, span_args(q.record));
    }
    if (!status.is_ok() || status.value().state != JobState::kDone) {
      report.failures.push_back(
          {"error", q.record.index,
           status.is_ok()
               ? std::string("state ") + job_state_name(status.value().state) +
                     " " + status.value().error.to_string()
               : status.status().to_string()});
      continue;
    }
    const RunResult& r = *status.value().result;
    fill_from_run(q.record, r);
    q.record.e2e_s = r.end_to_end_seconds;
    q.record.queue_s = r.queue_wait_seconds;
    q.record.wall_s = r.end_to_end_seconds;
    q.record.lat_s = q.record.lag_s + r.end_to_end_seconds;
    if (q.record.traced) {
      // The run starts when the query leaves the queue.
      trace_job(log, q.record, after(q.submitted, r.queue_wait_seconds),
                after(q.submitted, r.end_to_end_seconds), 3);
    }
    if (q.sampled) {
      const auto root = static_cast<VertexId>(q.record.root);
      const auto rt0 = Clock::now();
      const ReferenceResult ref =
          q.record.kind == "bfs" ? reference_run(csr_mem, BfsProgram(root))
                                 : reference_run(csr_mem, SsspProgram(root));
      if (q.record.kind == "bfs") {
        ref_bfs_s.push_back(seconds_since(rt0, Clock::now()));
      }
      const std::string mismatch = compare_values(r.values, ref.values, false);
      if (!mismatch.empty()) {
        report.failures.push_back({"wrong", q.record.index,
                                   q.record.kind + " root " +
                                       std::to_string(root) + ": " + mismatch});
      }
    }
    service.forget(q.id);
    report.jobs.push_back(std::move(q.record));
  }
  service.cancel(resident.value());
  (void)service.wait(resident.value());
  return true;
}

/// The query stream runs in kServiceSegments segments, each served by its
/// own freshly set-up service instance.
int run_service_workload(const EdgeList& input, Report& report, SpanLog& log) {
  const Args& args = report.args;
  const Csr csr_mem = Csr::from_edges(input);
  const std::vector<VertexId> candidates = vertices_with_out_edges(csr_mem);
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 29);
  std::vector<double> preprocess_s;
  std::vector<double> ref_bfs_s;
  std::string last_dir;
  for (int rep = 0; rep < kServiceSegments; ++rep) {
    if (!last_dir.empty()) {
      fs::remove_all(last_dir);
    }
    last_dir = args.work_dir + "/setup" + std::to_string(rep);
    std::unique_ptr<GraphService> service = open_service(
        input, last_dir, candidates[0], report, preprocess_s, log);
    if (service == nullptr) {
      return 1;
    }
    ::sync();  // set-up's file writes must not flush mid-stream
    // Warm-up queries draw from their own generator: how many run depends
    // on timing, and the measured stream must depend on the seed alone.
    Rng warm_rng(args.seed + 101);
    for (auto warm_end = after(Clock::now(), kWarmupSeconds);
         rep == 0 && Clock::now() < warm_end;) {
      auto id = service->submit(std::make_shared<const BfsProgram>(
          candidates[warm_rng.next_below(candidates.size())]));
      if (!id.is_ok() || !service->wait(id.value()).is_ok()) {
        std::fprintf(stderr, "service warm-up failed\n");
        return 1;
      }
      service->forget(id.value());
    }
    if (!run_service_stream(*service, csr_mem, candidates,
                            args.seconds / kServiceSegments, rng, report,
                            ref_bfs_s, log)) {
      return 1;
    }
  }
  for (const double mb : report.rss_windows) {
    report.rss_mb = std::max(report.rss_mb, mb);
  }

  if (args.trace) {
    report.probes.emplace_back("graph.preprocess_s", median_of(preprocess_s));
    if (!probe_storage_layers(report, last_dir + "/graph.csr", args.work_dir,
                              log)) {
      return 1;
    }
    report.probes.emplace_back("apps.ref_ms", median_of(ref_bfs_s) * 1e3);
    const double psw =
        psw_seconds(input, BfsProgram(candidates[0]), args.work_dir, log);
    if (psw < 0.0) {
      return 1;
    }
    report.probes.emplace_back("baselines.psw_s", psw);
  }
  return 0;
}

// --- Two-rank cluster workload -----------------------------------------------

/// A free localhost port for rank 0's listener.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) {
    ::close(fd);
  }
  return port;
}

ClusterOptions cluster_options(std::uint64_t supersteps) {
  ClusterOptions options;
  options.scheduler_workers = kClusterWorkers;
  options.max_supersteps = supersteps;
  return options;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct Rank1Reply {
  double ok;       // 1 when the job succeeded on rank 1
  double peak_mb;  // rank 1's peak RSS during the job
};

/// Rank-1 process body: runs one cluster job per command from the parent
/// (a superstep count) and replies with a Rank1Reply; exits on UINT32_MAX
/// or a closed pipe.
[[noreturn]] void rank1_main(const EdgeList& graph, std::uint16_t port,
                             int cmd_fd, int reply_fd) {
  ClusterNetOptions net;
  net.rank = 1;
  net.ranks = kClusterRanks;
  net.base_port = port;
  net.timeout_ms = 20000;
  std::uint32_t cmd = 0;
  while (read_all(cmd_fd, &cmd, sizeof(cmd)) && cmd != UINT32_MAX) {
    reset_peak_rss();
    const PageRankProgram program(cmd);
    auto result = run_cluster_rank(graph, program, cluster_options(cmd), net);
    if (!result.is_ok()) {
      std::fprintf(stderr, "rank 1: %s\n", result.status().to_string().c_str());
    }
    const Rank1Reply reply{result.is_ok() ? 1.0 : 0.0, peak_rss_mb()};
    if (!write_all(reply_fd, &reply, sizeof(reply))) {
      break;
    }
  }
  std::fflush(stderr);
  ::_exit(0);
}

class Rank1Process {
 public:
  ~Rank1Process() { stop(); }

  bool start(const EdgeList& graph, std::uint16_t port) {
    int to_child[2];
    int to_parent[2];
    if (::pipe(to_child) != 0 || ::pipe(to_parent) != 0) {
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ < 0) {
      return false;
    }
    if (pid_ == 0) {
      ::close(to_child[1]);
      ::close(to_parent[0]);
      rank1_main(graph, port, to_child[0], to_parent[1]);
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    cmd_fd_ = to_child[1];
    reply_fd_ = to_parent[0];
    return true;
  }

  bool send(std::uint32_t cmd) { return write_all(cmd_fd_, &cmd, sizeof(cmd)); }

  /// Rank 1's reply to the last job; ok == 0 when it failed or is gone.
  Rank1Reply reply() {
    Rank1Reply r{0.0, 0.0};
    if (!read_all(reply_fd_, &r, sizeof(r))) {
      r.ok = 0.0;
    }
    return r;
  }

  void finish() {
    (void)send(UINT32_MAX);
    stop();
  }

 private:
  void stop() {
    if (cmd_fd_ >= 0) {
      ::close(cmd_fd_);
      cmd_fd_ = -1;
    }
    if (reply_fd_ >= 0) {
      ::close(reply_fd_);
      reply_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      for (int i = 0; i < 500; ++i) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
};

int run_cluster_workload(const EdgeList& input, Report& report, SpanLog& log) {
  const Args& args = report.args;
  const std::uint16_t port = free_port();
  if (port == 0) {
    std::fprintf(stderr, "cluster: no free localhost port\n");
    return 1;
  }
  // Fork before this process starts any thread.
  Rank1Process rank1;
  if (!rank1.start(input, port)) {
    std::fprintf(stderr, "cluster: cannot start rank 1\n");
    return 1;
  }
  ClusterNetOptions net;
  net.rank = 0;
  net.ranks = kClusterRanks;
  net.base_port = port;
  net.timeout_ms = 20000;
  report.exec = exec_mode_name(resolve_exec_mode(std::nullopt));
  report.csr_format = csr_format_name(resolve_csr_format(std::nullopt));
  report.csr_order = csr_order_name(resolve_csr_order(std::nullopt));
  report.io_backend = "in-memory";
  report.routing = "range";

  // One job on both ranks; rank 0's call is the timed one. `peak_mb`
  // receives the larger of the two ranks' peak RSS during the job.
  double peak_mb = 0.0;
  auto cluster_job = [&](std::uint64_t supersteps) -> Result<ClusterRunResult> {
    if (!rank1.send(static_cast<std::uint32_t>(supersteps))) {
      return failed_precondition("rank 1 is gone");
    }
    reset_peak_rss();
    const PageRankProgram program(supersteps);
    auto result =
        run_cluster_rank(input, program, cluster_options(supersteps), net);
    const double own_peak = peak_rss_mb();
    const Rank1Reply peer = rank1.reply();
    peak_mb = std::max(own_peak, peer.peak_mb);
    if (result.is_ok() && peer.ok != 1.0) {
      return failed_precondition("rank 1 failed the job");
    }
    return result;
  };

  const Csr csr_mem = Csr::from_edges(input);
  // Each rank holds this CSR in memory; it stands in for the working set.
  report.working_set_bytes =
      (std::uint64_t{csr_mem.num_vertices()} + 1) * sizeof(EdgeCount) +
      csr_mem.num_edges() * sizeof(VertexId);
  const auto ref_t0 = Clock::now();
  const std::vector<Payload> want =
      reference_run(csr_mem, PageRankProgram(kClusterSupersteps)).values;
  const auto ref_t1 = Clock::now();
  log.span("apps.reference", "apps", ref_t0, ref_t1, 2);

  // Set-up: rendezvous plus one warm-up job, repeated.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    auto warm = cluster_job(kClusterSupersteps);
    const auto t1 = Clock::now();
    if (!warm.is_ok()) {
      std::fprintf(stderr, "cluster warm-up: %s\n",
                   warm.status().to_string().c_str());
      return 1;
    }
    log.span("setup.warmup", "cluster", t0, t1, 1);
    report.setup_s.push_back(seconds_since(t0, t1));
  }

  if (args.trace) {
    std::vector<double> rendezvous_ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      auto empty = cluster_job(0);
      const auto t1 = Clock::now();
      if (!empty.is_ok()) {
        std::fprintf(stderr, "cluster rendezvous: %s\n",
                     empty.status().to_string().c_str());
        return 1;
      }
      log.span("cluster.rendezvous", "cluster", t0, t1, 1);
      rendezvous_ms.push_back(seconds_since(t0, t1) * 1e3);
    }
    report.probes.emplace_back("cluster.rendezvous_ms",
                               median_of(rendezvous_ms));
  }

  for (const auto warm_end = after(Clock::now(), kWarmupSeconds);
       Clock::now() < warm_end;) {
    auto warm = cluster_job(kClusterSupersteps);
    if (!warm.is_ok()) {
      std::fprintf(stderr, "cluster warm-up: %s\n",
                   warm.status().to_string().c_str());
      return 1;
    }
  }
  const double stream_cpu0 = cpu_seconds();
  const auto stream_begin = Clock::now();
  const auto deadline = after(stream_begin, args.seconds);
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    JobRecord job;
    job.kind = "pagerank";
    job.phase = "closed";
    job.index = k;
    job.traced = args.trace && k % 2 == 1;
    const auto due = Clock::now();
    const double cpu0 = job.traced ? cpu_seconds() : 0.0;
    const auto t0 = Clock::now();
    auto result = cluster_job(kClusterSupersteps);
    const auto t1 = Clock::now();
    if (job.traced) {
      job.cpu_s = cpu_seconds() - cpu0;
    }
    ++report.attempted;
    job.wall_s = seconds_since(t0, t1);
    job.lat_s = seconds_since(due, t1);
    job.rss_mb = peak_mb;
    report.rss_mb = std::max(report.rss_mb, peak_mb);
    if (!result.is_ok()) {
      report.failures.push_back({"error", k, result.status().to_string()});
      continue;
    }
    const ClusterRunResult& r = result.value();
    job.elapsed_s = r.elapsed_seconds;
    job.supersteps = r.supersteps;
    job.messages = r.total_messages;
    job.remote_messages = r.remote_messages;
    job.wire_bytes = r.bytes_on_wire;
    job.frames = r.frames_sent;
    job.send_imbalance = r.send_imbalance();
    const std::string mismatch = compare_values(r.values, want, true);
    if (!mismatch.empty()) {
      report.failures.push_back({"wrong", k, "cluster pagerank: " + mismatch});
    }
    if (job.traced) {
      trace_job(log, job, t0, t1, 1);
    }
    report.jobs.push_back(std::move(job));
  }
  report.stream_s = seconds_since(stream_begin, Clock::now());
  report.stream_cpu_s = cpu_seconds() - stream_cpu0;
  rank1.finish();

  if (args.trace) {
    report.probes.emplace_back("apps.ref_ms",
                               seconds_since(ref_t0, ref_t1) * 1e3);
    const double psw =
        psw_seconds(input, PageRankProgram(kClusterSupersteps), args.work_dir,
                    log);
    if (psw < 0.0) {
      return 1;
    }
    report.probes.emplace_back("baselines.psw_s", psw);
    // The cluster engine keeps its CSR in memory; the storage-layer probes
    // run on a CSR file of the same graph.
    const std::string dir = args.work_dir + "/probe";
    const double pre = preprocess(input, dir, log);
    if (pre < 0.0 ||
        !probe_storage_layers(report, dir + "/graph.csr", args.work_dir, log)) {
      return 1;
    }
    report.probes.emplace_back("graph.preprocess_s", pre);
    report.csr_file_bytes = fs::file_size(dir + "/graph.csr");
  }
  return 0;
}

// --- Output ------------------------------------------------------------------

void write_job(JsonWriter& w, const JobRecord& j) {
  w.begin_object();
  w.key("kind").value(j.kind);
  w.key("phase").value(j.phase);
  w.key("index").value(j.index);
  w.key("root").value(j.root);
  w.key("traced").value(j.traced);
  w.key("wall_s").value(j.wall_s);
  w.key("lat_s").value(j.lat_s);
  w.key("elapsed_s").value(j.elapsed_s);
  w.key("supersteps").value(j.supersteps);
  w.key("messages").value(j.messages);
  w.key("edges_touched").value(j.edges_touched);
  w.key("superstep_s").begin_array();
  for (const double s : j.superstep_s) {
    w.value(s);
  }
  w.end_array();
  w.key("io_read_bytes").value(j.io_read_bytes);
  w.key("stall_s").value(j.stall_s);
  w.key("readahead_hit_rate").value(j.readahead_hit_rate);
  w.key("dispatch_busy_s").value(j.dispatch_busy_s);
  w.key("compute_busy_s").value(j.compute_busy_s);
  w.key("pool_leases").value(j.pool_leases);
  w.key("pool_hits").value(j.pool_hits);
  w.key("pool_steady_misses").value(j.pool_steady_misses);
  w.key("cpu_s").value(j.cpu_s);
  w.key("rss_mb").value(j.rss_mb);
  w.key("e2e_s").value(j.e2e_s);
  w.key("queue_s").value(j.queue_s);
  w.key("submit_s").value(j.submit_s);
  w.key("lag_s").value(j.lag_s);
  w.key("remote_messages").value(j.remote_messages);
  w.key("wire_bytes").value(j.wire_bytes);
  w.key("frames").value(j.frames);
  w.key("send_imbalance").value(j.send_imbalance);
  w.end_object();
}

bool write_report(const Report& report) {
  JsonWriter w;
  w.begin_object();
  w.key("workload").value(report.args.workload);
  w.key("seed").value(report.args.seed);
  w.key("seconds").value(report.args.seconds);
  w.key("trace").value(report.args.trace);
  w.key("host").begin_object();
  w.key("nproc").value(std::thread::hardware_concurrency());
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("l2_bytes").value(cache_bytes(2));
  w.key("l3_bytes").value(cache_bytes(3));
  w.end_object();
  w.key("config").begin_object();
  w.key("dispatchers").value(kDispatchers);
  w.key("computers").value(kComputers);
  w.key("engine_workers").value(kEngineWorkers);
  w.key("service_workers").value(kServiceWorkers);
  w.key("service_concurrent_jobs").value(std::uint64_t{kServiceConcurrentJobs});
  w.key("cluster_ranks").value(kClusterRanks);
  w.key("cluster_workers_per_rank").value(kClusterWorkers);
  w.key("pagerank_iterations").value(kPageRankIterations);
  w.key("cluster_supersteps").value(kClusterSupersteps);
  w.key("service_segments").value(kServiceSegments);
  w.key("pagerank_rel_tol").value(kPageRankRelTol);
  w.end_object();
  w.key("modes").begin_object();
  w.key("exec").value(report.exec);
  w.key("routing").value(report.routing);
  w.key("io_backend").value(report.io_backend);
  w.key("csr_format").value(report.csr_format);
  w.key("csr_order").value(report.csr_order);
  w.key("pool").value(report.pool);
  w.end_object();
  w.key("inputs").begin_object();
  w.key("vertices").value(std::uint64_t{report.vertices});
  w.key("edges").value(std::uint64_t{report.edges});
  w.key("gen_s").value(report.gen_s);
  w.key("roots").begin_array();
  for (const std::uint64_t root : report.roots) {
    w.value(root);
  }
  w.end_array();
  w.end_object();
  w.key("working_set_bytes").value(report.working_set_bytes);
  w.key("csr_file_bytes").value(report.csr_file_bytes);
  w.key("setup_s").begin_array();
  for (const double s : report.setup_s) {
    w.value(s);
  }
  w.end_array();
  w.key("attempted").value(report.attempted);
  w.key("stream_s").value(report.stream_s);
  w.key("stream_cpu_s").value(report.stream_cpu_s);
  w.key("rss_mb").value(report.rss_mb);
  w.key("resident_supersteps").value(report.resident_supersteps);
  w.key("nominal_rate").value(kServiceNominalRate);
  w.key("high_rate").value(kServiceHighRate);
  w.key("rss_windows").begin_array();
  for (const double mb : report.rss_windows) {
    w.value(mb);
  }
  w.end_array();
  w.key("backlog_nominal").begin_array();
  for (const std::uint64_t b : report.backlog_nominal) {
    w.value(b);
  }
  w.end_array();
  w.key("backlog_high").begin_array();
  for (const std::uint64_t b : report.backlog_high) {
    w.value(b);
  }
  w.end_array();
  w.key("failures").begin_array();
  for (const Failure& f : report.failures) {
    w.begin_object();
    w.key("kind").value(f.kind);
    w.key("job").value(f.job);
    w.key("detail").value(f.detail);
    w.end_object();
  }
  w.end_array();
  w.key("probes").begin_object();
  for (const auto& [name, value] : report.probes) {
    w.key(name).value(value);
  }
  w.end_object();
  w.key("jobs").begin_array();
  for (const JobRecord& job : report.jobs) {
    write_job(w, job);
  }
  w.end_array();
  w.end_object();
  std::ofstream out(report.args.out, std::ios::trunc);
  out << w.str() << "\n";
  return out.good();
}

/// The benchmark measures the default configuration only: any GPSA_*
/// variable would silently change a mode, so its presence is an error.
bool environment_clean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GPSA_", 5) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *env);
      clean = false;
    }
  }
  return clean;
}

int run(int argc, char** argv) {
  Report report;
  if (!parse_args(argc, argv, report.args)) {
    std::fprintf(stderr,
                 "usage: gpsa_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --out FILE [--trace-file FILE]\n");
    return 2;
  }
  if (!environment_clean()) {
    return 2;
  }
  const Args& args = report.args;
  const bool known = args.workload == "pagerank-google" ||
                     args.workload == "bfs-twitter" ||
                     args.workload == "service-pokec" ||
                     args.workload == "cluster2-pokec";
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.work_dir);

  // Seeded input generation; not part of any timed phase.
  const auto gen_t0 = Clock::now();
  EdgeList graph =
      generate_paper_graph(workload_graph(args.workload), 1.0, args.seed);
  report.gen_s = seconds_since(gen_t0, Clock::now());
  report.vertices = graph.num_vertices();
  report.edges = graph.num_edges();

  SpanLog log(args.trace);
  int rc = 0;
  if (args.workload == "service-pokec") {
    rc = run_service_workload(graph, report, log);
  } else if (args.workload == "cluster2-pokec") {
    rc = run_cluster_workload(graph, report, log);
  } else {
    rc = run_engine_workload(std::move(graph), report, log);
  }
  if (rc != 0) {
    return rc;
  }
  if (log.enabled() && !args.trace_file.empty() &&
      !log.write(args.trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
    return 1;
  }
  return write_report(report) ? 0 : 1;
}

}  // namespace
}  // namespace gpsa

namespace {

/// Prints a raw backtrace before dying on a fatal signal, so a crash in a
/// benchmark run leaves a trail (resolve with addr2line -e gpsa_perfbench).
void on_fatal_signal(int sig) {
  void* frames[64];
  const int depth = ::backtrace(frames, 64);
  static const char kHeader[] = "gpsa_perfbench: fatal signal, backtrace:\n";
  (void)::write(STDERR_FILENO, kHeader, sizeof(kHeader) - 1);
  ::backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

int main(int argc, char** argv) {
  void* warm[1];
  (void)::backtrace(warm, 1);  // loads the unwinder outside the handler
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    ::signal(sig, on_fatal_signal);
  }
  return gpsa::run(argc, argv);
}
