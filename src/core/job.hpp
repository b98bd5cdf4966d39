// One job run against borrowed, shared infrastructure.
//
// run_job() is the engine's superstep orchestration (value-file setup,
// partitioning, actor spawn/wire, kStartRun -> result extraction) and the
// only superstep driver there is. It runs in three hosting modes:
//
//   - Engine (engine.cpp): a private ActorSystem and IoBackend per run —
//     the paper's one-job-owns-the-process shape.
//   - GraphService (src/service/): the CSR, IoBackend, and ActorSystem are
//     opened once and shared; many jobs run concurrently, each under its
//     own actor namespace (JobContext::job_tag) so mailboxes, bitmaps, and
//     pools never cross jobs, with its own two-column value file.
//   - A cluster rank (src/cluster/): JobContext::peers links the run over
//     its slice to the other ranks. The other two are one-rank runs.
//
// run_job spawns every actor via ActorSystem::spawn_in_job(job_tag) and
// always retires the namespace with despawn_job(job_tag) before
// returning, so per-run locals (value file, streams, batch pool) safely
// outlive the actors that reference them.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "graph/csr_file.hpp"
#include "io/io_backend.hpp"

namespace gpsa {

class ActorSystem;
class PeerLinks;

/// Everything a single run borrows from its host. All pointers must stay
/// valid for the duration of the run_job call; `csr`, `backend`, and
/// `system` may be shared with concurrent run_job calls (distinct
/// nonzero `job_tag`s required in that case).
struct JobContext {
  CsrFileReader* csr = nullptr;
  IoBackend* backend = nullptr;
  const IoConfig* io_config = nullptr;
  ActorSystem* system = nullptr;
  /// Actor namespace for this run (ActorSystem::spawn_in_job). 0 is fine
  /// for a run that owns its ActorSystem.
  std::uint32_t job_tag = 0;
  /// Optional cooperative cancel flag, polled at superstep boundaries.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional live progress counter, bumped once per completed superstep.
  std::atomic<std::uint64_t>* progress = nullptr;
  /// A cluster rank's links to its peers (core/peer_links.hpp); null for
  /// a one-rank run. With links the value file, worklist and
  /// RunResult::values cover the rank's slice only, values in the CSR
  /// file's internal order; the links' pool serves the run's batches.
  PeerLinks* peers = nullptr;
};

/// Validates the option combinations run_job enforces up front.
Status validate_engine_options(const EngineOptions& options);

/// Executes `program` to completion (convergence, budget, failure, or
/// cancel). `options.io` and `options.scheduler_workers` are ignored —
/// the host already resolved both into the context. The value file is
/// created at (or resumed from) `value_path`.
Result<RunResult> run_job(const JobContext& ctx, const Program& program,
                          const EngineOptions& options,
                          const std::string& value_path, bool resume);

}  // namespace gpsa
