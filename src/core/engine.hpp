// GPSA engine front-end (paper §V.A, Fig. 3).
//
// Orchestrates a run end to end:
//   1. preprocessing: edge list -> on-disk CSR (Fig. 4c, degree-inline),
//      unless an existing CSR file pair is supplied;
//   2. value-file creation + initialization via Program::init;
//   3. interval assignment to dispatchers (§V.A: mod or edge-balanced);
//   4. actor spawn (manager, dispatchers, computers) and the superstep
//      protocol, run on the actor scheduler;
//   5. result extraction (per-vertex payloads from each vertex's freshest
//      column) and teardown.
//
// Correctness note recorded in DESIGN.md: the paper's two-column protocol
// under-specifies the accumulator base when a vertex's first message of a
// superstep arrives while its freshest value sits in the *update* column
// (vertex last updated an even number of supersteps ago). The engine
// therefore tracks a per-vertex latest-column byte, written only by the
// owning computing actor. Without it, monotone apps (BFS/CC) can lose
// good values by seeding from the stale column.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/exec_mode.hpp"
#include "core/manager.hpp"
#include "core/message_pool.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "graph/edge_list.hpp"
#include "io/io_backend.hpp"
#include "metrics/io_model.hpp"
#include "storage/slot.hpp"
#include "util/status.hpp"

namespace gpsa {

struct EngineOptions {
  unsigned num_dispatchers = 2;
  /// Computing actors, each owning one contiguous vertex slice
  /// (core/ownership.hpp). On tiny graphs the partitioner may produce
  /// fewer non-empty slices; the engine then spawns exactly that many.
  unsigned num_computers = 2;
  /// Scheduler worker threads; 0 means default_worker_count().
  unsigned scheduler_workers = 0;
  /// VertexMessages per mailbox batch. 4096 (64 KiB of messages, still
  /// L2-resident) amortizes flush/send overhead and gives range routing's
  /// ascending-dst batches enough density for near-sequential applies;
  /// the retired message-plane bench measured it ~1.2x the throughput of
  /// 1024 on the google stand-in (its last numbers: EXPERIMENTS.md
  /// "Retired modes").
  std::size_t message_batch = 4096;
  /// Caps supersteps in addition to Program::max_supersteps (the smaller
  /// wins). 0 means "no engine-side cap".
  std::uint64_t max_supersteps = 0;
  /// msync + bump the completed-superstep counter at superstep boundaries,
  /// enabling crash recovery (§IV.G).
  bool checkpoint_each_superstep = false;
  /// Write-back batching (DESIGN.md §16): checkpoint every Nth superstep
  /// (plus once at clean run end) instead of all of them, trading up to
  /// N-1 supersteps of crash-replay for fewer msyncs — RunResult reports
  /// `value_flush_syscalls` so the trade is measurable. Only meaningful
  /// with checkpoint_each_superstep. Unset follows
  /// GPSA_CHECKPOINT_INTERVAL (default 1: the historical every-superstep
  /// behavior).
  std::optional<std::uint64_t> checkpoint_interval;
  /// On-disk CSR format written by preprocessing (graph/csr_v2.hpp): v1 is
  /// the paper's flat-entry layout, v2 the varint delta-gap encoding.
  /// Unset follows GPSA_CSR_FORMAT (default v1). Runs against an existing
  /// file (run_from_csr) take the file's own format regardless.
  std::optional<CsrFormat> csr_format;
  /// Vertex renumbering applied by preprocessing (requires v2): degree
  /// packs hubs first, bfs packs neighborhoods. Results stay keyed by the
  /// original vertex ids (the permutation is inverted on output). Unset
  /// follows GPSA_CSR_ORDER (default none).
  std::optional<CsrOrder> csr_order;
  /// Ablation knob (bench_ablation_overlap): when false, dispatchers hold
  /// every batch until their interval is fully scanned, so computing
  /// actors only start after dispatch finishes — the conventional
  /// sequential compute-then-dispatch BSP the paper's model replaces.
  bool overlap_dispatch_compute = true;
  /// Ablation knob (bench_ablation_skipflag): when true, every dispatcher
  /// sets all of its interval's worklist bits at the start of each
  /// superstep, so every vertex generates messages every superstep
  /// (X-Stream-like full streaming). Only meaningful for monotone apps
  /// (BFS/CC/SSSP), whose folds tolerate replayed values.
  bool dispatch_inactive = false;
  /// Working directory for the CSR and value files; empty -> private
  /// scratch directory removed at teardown.
  std::string work_dir;
  /// Storage I/O subsystem configuration (src/io/): backend selection,
  /// readahead window, drop-behind. Unset fields follow
  /// GPSA_IO_BACKEND / GPSA_READAHEAD_MB / etc.
  IoOptions io;
};

struct RunResult {
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_updates = 0;
  bool converged = false;
  /// True when a GraphService cancel request stopped the run at a
  /// superstep boundary; values reflect the completed supersteps.
  bool cancelled = false;
  double elapsed_seconds = 0.0;
  double preprocess_seconds = 0.0;
  /// Service-mode latencies (GraphService): submit-to-start queue wait and
  /// submit-to-completion end-to-end time. Zero for direct Engine runs.
  double queue_wait_seconds = 0.0;
  double end_to_end_seconds = 0.0;
  std::vector<double> superstep_seconds;
  std::vector<std::uint64_t> superstep_messages;
  std::vector<std::uint64_t> superstep_updates;
  /// Vertices actually dispatched per superstep (the frontier size).
  std::vector<std::uint64_t> superstep_active_vertices;
  /// Work done per superstep: CSR record entries streamed plus one unit
  /// per vertex examined — O(active), since dispatchers examine only the
  /// worklist's set bits.
  std::vector<std::uint64_t> superstep_edges_touched;
  /// Final payload per vertex (freshest column at quiescence).
  std::vector<Payload> values;
  /// Fundamental I/O volume of the run (metrics/io_model.hpp): CSR bytes
  /// of dispatched records + value-column scans read; value updates
  /// written. GPSA spills no messages.
  IoStats io;
  /// Resident data the engine needs (CSR file + value file) for the
  /// I/O model's in-memory/out-of-core regime decision.
  std::uint64_t working_set_bytes = 0;
  /// Backend the run actually used (after unsupported-uring fallback).
  IoBackendKind io_backend = IoBackendKind::kMmap;
  /// Measured readahead activity summed over all dispatcher streams and
  /// value-plane windows (metrics/io_model.hpp).
  PrefetchCounters prefetch;
  /// Per-dispatcher wall time spent dispatching; elapsed_seconds minus
  /// this is that dispatcher's idle time (partition-skew diagnostics).
  std::vector<double> dispatcher_busy_seconds;
  /// Per-computer wall time spent applying batches (the compute-side
  /// complement, used by the message-plane bench).
  std::vector<double> computer_busy_seconds;
  /// Batch-buffer pool activity (hits/misses/steady misses/bytes
  /// recycled/free buffers at job end).
  MessagePoolStats pool;
  /// Destination -> computer map the run used (core/ownership.hpp; range
  /// is the only one).
  MessageRouting routing = MessageRouting::kRange;
  /// Execution mode the run used (core/exec_mode.hpp; worklist is the
  /// only one).
  ExecMode exec = ExecMode::kWorklist;
  /// Readahead window hit rate over every prefetch plane of the run
  /// (summed `prefetch` counters; 1.0 when no window activity occurred).
  double readahead_hit_rate = 1.0;
  /// On-disk CSR format and vertex order the run actually streamed (from
  /// the opened file's header, after GPSA_CSR_FORMAT/ORDER resolution).
  CsrFormat csr_format = CsrFormat::kV1;
  CsrOrder csr_order = CsrOrder::kNone;
  /// Bytes of the CSR entry file (the compression bench's ratio numerator
  /// comes from comparing this across formats).
  std::uint64_t csr_file_bytes = 0;
  /// msync calls issued against the value file over the whole run (the
  /// write-back-batching observable; see EngineOptions::checkpoint_interval).
  std::uint64_t value_flush_syscalls = 0;
};

class Engine {
 public:
  /// One-shot run: preprocess `graph`, execute `program`, return results.
  static Result<RunResult> run(const EdgeList& graph, const Program& program,
                               const EngineOptions& options);

  /// Runs against an existing CSR file pair (skips preprocessing). The
  /// value file is created in (or resumed from, when `resume` is set and
  /// the file exists) `options.work_dir`.
  static Result<RunResult> run_from_csr(const std::string& csr_base_path,
                                        const Program& program,
                                        const EngineOptions& options,
                                        bool resume = false);
};

}  // namespace gpsa
