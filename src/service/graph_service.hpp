// Multi-tenant graph service: concurrent jobs over one shared graph.
//
// The paper's engine assumes one Engine::run owns the process. The
// service inverts that (DESIGN.md §13): the CSR and IoBackend are opened
// once and shared immutably, one work-stealing scheduler hosts every job,
// and each submitted job — a resident PageRank, a stream of short
// BFS/SSSP/multi-BFS queries from arbitrary roots — runs under its own
// actor namespace (ActorSystem::spawn_in_job) with its own two-column
// value file and RunResult. Nothing per-job crosses jobs: mailboxes,
// active bitmaps, and batch pools are all namespace-local; the shared
// pieces (CSR pages, the pread/uring thread pool, the scheduler) are
// either immutable or internally synchronized.
//
// Front-end: an in-process submission queue with admission control
// (submit() rejects with RESOURCE_EXHAUSTED when the queue is full),
// poll()/wait() for status and results, cooperative cancel() honored at
// superstep boundaries, and per-job latency metrics (queue-wait, run,
// end-to-end) surfaced through RunResult. Fair-share between jobs comes
// from the scheduler's per-job budget (the 61-slice fairness tick
// generalized; Scheduler::set_fair_share_budget).
//
// Env knobs GPSA_SERVICE_MAX_JOBS and GPSA_SERVICE_MAX_QUEUE
// (util/knobs.hpp); explicit ServiceOptions fields win.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "actor/actor_system.hpp"
#include "core/engine.hpp"
#include "core/program.hpp"
#include "graph/csr_file.hpp"
#include "graph/edge_list.hpp"
#include "io/io_backend.hpp"
#include "platform/file_util.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

/// Service-wide configuration, fixed at open().
struct ServiceOptions {
  /// Actors per job (same meaning as EngineOptions). Short queries get
  /// small ensembles; concurrency comes from running many jobs at once.
  unsigned num_dispatchers = 2;
  unsigned num_computers = 2;
  /// Scheduler worker threads shared by all jobs; 0 = default_worker_count.
  unsigned scheduler_workers = 0;
  /// Concurrent jobs (= runner threads); 0 = GPSA_SERVICE_MAX_JOBS (4).
  std::size_t max_concurrent_jobs = 0;
  /// Queued jobs beyond which submit() rejects; 0 = GPSA_SERVICE_MAX_QUEUE
  /// (256).
  std::size_t max_queued_jobs = 0;
  std::size_t message_batch = 4096;
  /// Storage I/O for the shared CSR + per-job value files. drop_behind
  /// defaults to *off*: a resident service wants the shared CSR pages
  /// cached, not dropped behind one job's cursor. An explicit field still
  /// wins.
  IoOptions io;
  /// Directory for the CSR and per-job value files; empty = private
  /// scratch removed when the service is destroyed.
  std::string work_dir;
};

/// Per-job knobs, the subset of EngineOptions that is per-run.
struct JobOptions {
  /// Caps supersteps in addition to Program::max_supersteps. 0 = no cap.
  std::uint64_t max_supersteps = 0;
  /// Keep RunResult::values in the stored result. Turn off for
  /// high-volume query streams where only latencies/counters matter —
  /// thousands of retained n-sized vectors add up.
  bool retain_values = true;
};

enum class JobState : std::uint8_t {
  kQueued,     // admitted, waiting for a runner
  kRunning,    // a runner is executing it
  kDone,       // finished (converged or budget); result available
  kFailed,     // run_job returned an error; see JobStatus::error
  kCancelled,  // cancel() won: either never ran, or stopped at a boundary
};

const char* job_state_name(JobState state);

using JobId = std::uint32_t;

/// Snapshot returned by poll()/wait().
struct JobStatus {
  JobState state = JobState::kQueued;
  /// Supersteps completed so far; live while running (the no-starvation
  /// probe for resident jobs), final afterwards.
  std::uint64_t supersteps_completed = 0;
  /// Set in kDone, and in kCancelled when the job reached a runner
  /// (cancel-before-start leaves it null). RunResult::queue_wait_seconds /
  /// end_to_end_seconds carry the service-side latencies.
  std::shared_ptr<const RunResult> result;
  /// Set in kFailed.
  Status error;
};

/// Monotonic service counters (admission control diagnostics).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
};

class GraphService {
 public:
  /// Opens an existing CSR file pair and starts the runner pool.
  static Result<std::unique_ptr<GraphService>> open(
      const std::string& csr_base_path, const ServiceOptions& options = {});

  /// Preprocesses `graph` into the work dir, then open()s the result.
  static Result<std::unique_ptr<GraphService>> open_from_edges(
      const EdgeList& graph, const ServiceOptions& options = {});

  /// Cancels queued jobs, asks running jobs to stop at their next
  /// superstep boundary, joins the runners, shuts the scheduler down.
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Admits a job or rejects it (RESOURCE_EXHAUSTED) when the queue is at
  /// capacity. The program is shared because the job outlives the call.
  Result<JobId> submit(std::shared_ptr<const Program> program,
                       JobOptions options = {}) GPSA_EXCLUDES(mutex_);

  /// Non-blocking status snapshot. NOT_FOUND after forget() or for ids
  /// never issued.
  Result<JobStatus> poll(JobId id) const GPSA_EXCLUDES(mutex_);

  /// Blocks until the job reaches a terminal state, then returns its
  /// final status.
  Result<JobStatus> wait(JobId id) GPSA_EXCLUDES(mutex_);

  /// Requests cancellation: a queued job is retired immediately; a running
  /// job stops at its next superstep boundary (RunResult::cancelled set).
  /// Returns false if the job is unknown or already terminal.
  bool cancel(JobId id) GPSA_EXCLUDES(mutex_);

  /// Drops a terminal job's bookkeeping (and its RunResult). Returns false
  /// if the job is unknown or still queued/running. Query streams call
  /// this after harvesting latencies so the job table stays bounded.
  bool forget(JobId id) GPSA_EXCLUDES(mutex_);

  ServiceStats stats() const GPSA_EXCLUDES(mutex_);

  VertexId num_vertices() const { return csr_.num_vertices(); }
  /// The shared CSR's base path (tests run sequential Engine baselines
  /// against the same file pair).
  const std::string& csr_path() const { return csr_path_; }
  const std::string& work_dir() const { return dir_; }

 private:
  struct Job {
    JobId id = 0;
    std::shared_ptr<const Program> program;
    JobOptions options;
    // state/result/error/timing fields are guarded by GraphService::mutex_
    // (not annotatable from a nested struct); cancel_flag and progress are
    // the two cross-thread atomics the manager actor reads/writes.
    JobState state = JobState::kQueued;
    std::atomic<bool> cancel_flag{false};
    std::atomic<std::uint64_t> progress{0};
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point start_time;
    std::shared_ptr<const RunResult> result;
    Status error;
  };

  GraphService(const ServiceOptions& resolved, IoConfig io_config,
               std::unique_ptr<IoBackend> backend, CsrFileReader csr,
               std::string csr_path, std::string dir,
               std::optional<ScratchDir> scratch);

  void runner_loop(unsigned runner_index);
  void run_one(const std::shared_ptr<Job>& job);
  JobStatus snapshot(const Job& job) const GPSA_REQUIRES(mutex_);
  void finalize_cancelled_queued(Job& job) GPSA_REQUIRES(mutex_);

  const ServiceOptions options_;  // resolved: no zero/unset fields
  const IoConfig io_config_;
  const std::unique_ptr<IoBackend> backend_;
  CsrFileReader csr_;
  const std::string csr_path_;
  const std::string dir_;
  std::optional<ScratchDir> scratch_;
  std::unique_ptr<ActorSystem> system_;

  mutable Mutex mutex_{"GraphService.jobs"};
  CondVar work_cv_;  // runners wait here for queued jobs
  CondVar done_cv_;  // wait() callers wait here for terminal transitions
  std::deque<JobId> queue_ GPSA_GUARDED_BY(mutex_);
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_ GPSA_GUARDED_BY(mutex_);
  JobId next_id_ GPSA_GUARDED_BY(mutex_) = 1;
  bool stopping_ GPSA_GUARDED_BY(mutex_) = false;
  ServiceStats stats_ GPSA_GUARDED_BY(mutex_);

  std::vector<std::thread> runners_;
};

}  // namespace gpsa
