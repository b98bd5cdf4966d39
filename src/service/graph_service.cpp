#include "service/graph_service.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "core/job.hpp"
#include "util/check.hpp"
#include "util/knobs.hpp"
#include "util/logging.hpp"
#include "util/thread.hpp"

namespace gpsa {
namespace {

/// Per-job fair-share slice budget (Scheduler::set_fair_share_budget):
/// the scheduler's fairness-tick period, so a resident job yields to
/// queries as often as the tick would.
constexpr std::uint64_t kFairShareBudget = 61;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Result<std::unique_ptr<GraphService>> GraphService::open(
    const std::string& csr_base_path, const ServiceOptions& options) {
  ServiceOptions resolved = options;
  if (resolved.max_concurrent_jobs == 0) {
    GPSA_ASSIGN_OR_RETURN(resolved.max_concurrent_jobs,
                          knob<std::uint64_t>("GPSA_SERVICE_MAX_JOBS"));
  }
  if (resolved.max_queued_jobs == 0) {
    GPSA_ASSIGN_OR_RETURN(resolved.max_queued_jobs,
                          knob<std::uint64_t>("GPSA_SERVICE_MAX_QUEUE"));
  }
  if (resolved.scheduler_workers == 0) {
    resolved.scheduler_workers = default_worker_count();
  }
  EngineOptions shape;
  shape.num_dispatchers = resolved.num_dispatchers;
  shape.num_computers = resolved.num_computers;
  shape.message_batch = resolved.message_batch;
  GPSA_RETURN_IF_ERROR(validate_engine_options(shape));
  // A resident service keeps the shared CSR hot: drop-behind would evict
  // pages other jobs are about to read. Explicit opt-in still works; the
  // GPSA_IO_DROP_BEHIND env default (on, for one-shot engine runs) does
  // not apply here.
  if (!resolved.io.drop_behind.has_value()) {
    resolved.io.drop_behind = false;
  }
  GPSA_ASSIGN_OR_RETURN(const IoConfig io_config, resolved.io.resolve());
  GPSA_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> backend,
                        IoBackend::create(io_config));

  std::optional<ScratchDir> scratch;
  std::string dir = resolved.work_dir;
  if (dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("service"));
    dir = s.path();
    scratch.emplace(std::move(s));
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return io_error("service: cannot create work dir " + dir + ": " +
                      ec.message());
    }
  }

  GPSA_ASSIGN_OR_RETURN(CsrFileReader csr,
                        CsrFileReader::open(csr_base_path));
  if (csr.num_vertices() == 0) {
    return invalid_argument("service: graph has no vertices");
  }

  // make_unique needs a public constructor; bare new keeps it private.
  return std::unique_ptr<GraphService>(new GraphService(
      resolved, io_config, std::move(backend), std::move(csr), csr_base_path,
      std::move(dir), std::move(scratch)));
}

Result<std::unique_ptr<GraphService>> GraphService::open_from_edges(
    const EdgeList& graph, const ServiceOptions& options) {
  ServiceOptions with_dir = options;
  std::optional<ScratchDir> scratch;
  if (with_dir.work_dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(auto s, ScratchDir::create("service"));
    with_dir.work_dir = s.path();
    scratch.emplace(std::move(s));
  }
  const std::string csr_path = with_dir.work_dir + "/graph.csr";
  GPSA_RETURN_IF_ERROR(
      preprocess_edges_to_csr(graph, csr_path, /*with_degree=*/true));
  GPSA_ASSIGN_OR_RETURN(std::unique_ptr<GraphService> service,
                        open(csr_path, with_dir));
  if (scratch.has_value()) {
    // Transfer scratch ownership so the preprocessed CSR lives exactly as
    // long as the service that serves it.
    service->scratch_ = std::move(scratch);
  }
  return service;
}

GraphService::GraphService(const ServiceOptions& resolved, IoConfig io_config,
                           std::unique_ptr<IoBackend> backend,
                           CsrFileReader csr, std::string csr_path,
                           std::string dir, std::optional<ScratchDir> scratch)
    : options_(resolved),
      io_config_(io_config),
      backend_(std::move(backend)),
      csr_(std::move(csr)),
      csr_path_(std::move(csr_path)),
      dir_(std::move(dir)),
      scratch_(std::move(scratch)),
      system_(std::make_unique<ActorSystem>(resolved.scheduler_workers)) {
  system_->scheduler().set_fair_share_budget(kFairShareBudget);
  runners_.reserve(options_.max_concurrent_jobs);
  for (std::size_t r = 0; r < options_.max_concurrent_jobs; ++r) {
    runners_.emplace_back(
        [this, r] { runner_loop(static_cast<unsigned>(r)); });
  }
}

GraphService::~GraphService() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    // Queued jobs never reach a runner now; retire them as cancelled.
    for (const JobId id : queue_) {
      const auto it = jobs_.find(id);
      if (it != jobs_.end() && it->second->state == JobState::kQueued) {
        finalize_cancelled_queued(*it->second);
      }
    }
    queue_.clear();
    // Running jobs wind down at their next superstep boundary.
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) {
        job->cancel_flag.store(true);
      }
    }
    work_cv_.notify_all();
  }
  for (std::thread& runner : runners_) {
    runner.join();
  }
  system_->shutdown();
}

Result<JobId> GraphService::submit(std::shared_ptr<const Program> program,
                                   JobOptions options) {
  if (program == nullptr) {
    return invalid_argument("service: submit requires a program");
  }
  MutexLock lock(mutex_);
  if (stopping_) {
    return failed_precondition("service: shutting down");
  }
  if (queue_.size() >= options_.max_queued_jobs) {
    ++stats_.rejected;
    return resource_exhausted(
        "service: admission queue full (" +
        std::to_string(options_.max_queued_jobs) +
        " queued jobs); retry later or raise GPSA_SERVICE_MAX_QUEUE");
  }
  const JobId id = next_id_++;
  auto job = std::make_shared<Job>();
  job->id = id;
  job->program = std::move(program);
  job->options = options;
  job->submit_time = std::chrono::steady_clock::now();
  jobs_.emplace(id, job);
  queue_.push_back(id);
  ++stats_.submitted;
  ++stats_.queued;
  work_cv_.notify_one();
  return id;
}

Result<JobStatus> GraphService::poll(JobId id) const {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return not_found("service: unknown job " + std::to_string(id));
  }
  return snapshot(*it->second);
}

Result<JobStatus> GraphService::wait(JobId id) {
  MutexLock lock(mutex_);
  for (;;) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return not_found("service: unknown job " + std::to_string(id));
    }
    const JobState state = it->second->state;
    if (state != JobState::kQueued && state != JobState::kRunning) {
      return snapshot(*it->second);
    }
    done_cv_.wait(lock);
  }
}

bool GraphService::cancel(JobId id) {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return false;
  }
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kQueued: {
      // Retire immediately; pull it out of the queue so no runner claims
      // a half-cancelled job.
      const auto pos = std::find(queue_.begin(), queue_.end(), id);
      if (pos != queue_.end()) {
        queue_.erase(pos);
      }
      finalize_cancelled_queued(job);
      return true;
    }
    case JobState::kRunning:
      job.cancel_flag.store(true);
      return true;
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
      return false;
  }
  return false;
}

bool GraphService::forget(JobId id) {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return false;
  }
  const JobState state = it->second->state;
  if (state == JobState::kQueued || state == JobState::kRunning) {
    return false;
  }
  jobs_.erase(it);
  return true;
}

ServiceStats GraphService::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

JobStatus GraphService::snapshot(const Job& job) const {
  JobStatus status;
  status.state = job.state;
  status.supersteps_completed = job.progress.load();
  status.result = job.result;
  status.error = job.error;
  return status;
}

void GraphService::finalize_cancelled_queued(Job& job) {
  job.state = JobState::kCancelled;
  ++stats_.cancelled;
  --stats_.queued;
  // Caller holds mutex_ (GPSA_REQUIRES in the header); the lexical
  // locked-notify rule cannot see across the call boundary.
  done_cv_.notify_all();  // gpsa-lint: allow(locked-notify)
}

void GraphService::runner_loop(unsigned runner_index) {
  set_current_thread_name("gpsa-svc" + std::to_string(runner_index));
  for (;;) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        work_cv_.wait(lock);
      }
      if (queue_.empty()) {
        return;  // stopping_, and the destructor drained the queue
      }
      const JobId id = queue_.front();
      queue_.pop_front();
      job = jobs_.at(id);
      job->state = JobState::kRunning;
      job->start_time = std::chrono::steady_clock::now();
      --stats_.queued;
      ++stats_.running;
    }
    run_one(job);
  }
}

void GraphService::run_one(const std::shared_ptr<Job>& job) {
  EngineOptions eo;
  eo.num_dispatchers = options_.num_dispatchers;
  eo.num_computers = options_.num_computers;
  eo.message_batch = options_.message_batch;
  eo.max_supersteps = job->options.max_supersteps;

  JobContext ctx;
  ctx.csr = &csr_;
  ctx.backend = backend_.get();
  ctx.io_config = &io_config_;
  ctx.system = system_.get();
  ctx.job_tag = job->id;
  ctx.cancel = &job->cancel_flag;
  ctx.progress = &job->progress;

  // Per-job value file: the job id keeps concurrent same-program jobs
  // from colliding; deleted below — results live in RunResult.
  const std::string value_path = dir_ + "/job-" + std::to_string(job->id) +
                                 "-" + job->program->name() + ".values";
  Result<RunResult> result =
      run_job(ctx, *job->program, eo, value_path, /*resume=*/false);
  std::error_code ec;
  std::filesystem::remove(value_path, ec);  // best-effort cleanup

  const auto end_time = std::chrono::steady_clock::now();
  MutexLock lock(mutex_);
  --stats_.running;
  if (result.is_ok()) {
    RunResult run = std::move(result).value();
    run.queue_wait_seconds =
        seconds_between(job->submit_time, job->start_time);
    run.end_to_end_seconds = seconds_between(job->submit_time, end_time);
    if (!job->options.retain_values) {
      run.values.clear();
      run.values.shrink_to_fit();
    }
    if (run.cancelled) {
      job->state = JobState::kCancelled;
      ++stats_.cancelled;
    } else {
      job->state = JobState::kDone;
      ++stats_.completed;
    }
    job->result = std::make_shared<const RunResult>(std::move(run));
  } else {
    job->state = JobState::kFailed;
    job->error = result.status();
    ++stats_.failed;
    GPSA_LOG(Error) << "service: job " << job->id << " ('"
                    << job->program->name()
                    << "') failed: " << job->error.to_string();
  }
  done_cv_.notify_all();
}

}  // namespace gpsa
