#include "core/job.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "actor/actor_system.hpp"
#include "core/computer.hpp"
#include "core/dispatcher.hpp"
#include "core/peer_links.hpp"
#include "platform/file_util.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/recovery.hpp"
#include "storage/value_file.hpp"
#include "util/check.hpp"
#include "util/knobs.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gpsa {

Status validate_engine_options(const EngineOptions& options) {
  if (options.num_dispatchers == 0) {
    return invalid_argument("EngineOptions: num_dispatchers must be >= 1");
  }
  if (options.num_computers == 0) {
    return invalid_argument("EngineOptions: num_computers must be >= 1");
  }
  if (options.message_batch == 0) {
    return invalid_argument("EngineOptions: message_batch must be >= 1");
  }
  return Status::ok();
}

Result<RunResult> run_job(const JobContext& ctx, const Program& program,
                          const EngineOptions& options,
                          const std::string& value_path, bool resume) {
  GPSA_CHECK(ctx.csr != nullptr && ctx.backend != nullptr &&
             ctx.io_config != nullptr && ctx.system != nullptr);
  CsrFileReader& csr = *ctx.csr;
  IoBackend& backend = *ctx.backend;
  const IoConfig& io_config = *ctx.io_config;
  ActorSystem& system = *ctx.system;

  const VertexId n = csr.num_vertices();
  if (n == 0) {
    return invalid_argument("engine: graph has no vertices");
  }
  // The vertices this run stores, a rank's slice or the whole graph:
  // storage index i (slot, bitmap bit, latest, last sent) is base + i.
  PeerLinks* const peers = ctx.peers;
  const VertexId base =
      peers == nullptr ? 0 : peers->slices().range_begin(peers->rank());
  const VertexId size =
      peers == nullptr ? n : peers->slices().local_size(peers->rank());

  // Renumbered v2 files: the engine works entirely in the file's internal
  // ids (intervals, routing, value slots, bitmap); `orig` translates at
  // the two Program boundaries (init/gen_msg/first_update in, result
  // extraction out), so callers always see original vertex ids.
  const std::span<const VertexId> perm = csr.permutation();
  const VertexId* const orig = perm.empty() ? nullptr : perm.data();

  // Explicit option beats GPSA_CHECKPOINT_INTERVAL beats 1 (the
  // historical checkpoint-every-superstep cadence).
  std::uint64_t checkpoint_interval = options.checkpoint_interval.value_or(0);
  if (!options.checkpoint_each_superstep) {
    checkpoint_interval = 0;
  } else if (checkpoint_interval == 0) {
    GPSA_ASSIGN_OR_RETURN(checkpoint_interval,
                          knob<std::uint64_t>("GPSA_CHECKPOINT_INTERVAL"));
  }
  if (resume && program.delta_messages()) {
    return failed_precondition(
        "engine: cannot resume a delta program ('" + program.name() +
        "'): the last-sent plane is not checkpointed, so re-dispatched "
        "deltas would double-count");
  }
  // Generation g of the bitmap mirrors value column g: a bit set in g is
  // exactly a clear stale flag in column g, so worklist dispatch touches
  // the vertex set the paper's stale-flag scan would (DESIGN.md §12).
  ActiveBitmap worklist(size);
  // Delta programs: per-vertex value as of its last dispatch. Written only
  // by the dispatcher owning the vertex's interval (single-writer).
  std::optional<std::vector<Payload>> last_sent;
  if (program.delta_messages()) {
    last_sent.emplace(size, Payload{0});
  }

  // --- Value file: create + initialize, or resume after a crash. ---------
  ValueFile values;
  std::vector<std::uint8_t> latest_column(size, 0);
  if (resume && file_exists(value_path)) {
    GPSA_ASSIGN_OR_RETURN(values, backend.open_value_file(value_path));
    if (values.num_vertices() != size) {
      return failed_precondition("engine: value file vertex count mismatch");
    }
    if (values.app_tag() != program.name()) {
      return failed_precondition("engine: value file belongs to app '" +
                                 values.app_tag() + "', not '" +
                                 program.name() + "'");
    }
    GPSA_ASSIGN_OR_RETURN(const RecoveryReport report,
                          recover_value_file(values));
    std::fill(latest_column.begin(), latest_column.end(),
              static_cast<std::uint8_t>(report.valid_column));
    // Rebuild the dispatch generation from the recovered stale flags
    // (recovery re-activates the frontier in the dispatch column; the
    // bitmap in the crashed process died with it).
    const unsigned dcol = ValueFile::dispatch_column(report.resume_superstep);
    for (VertexId i = 0; i < size; ++i) {
      if (!slot_is_stale(values.load(i, dcol))) {
        worklist.set(i, dcol);
      }
    }
    // Values come from the file, but programs that cache per-graph
    // constants in init() (e.g. PageRank's teleport term) still need one
    // init call to see the vertex count.
    (void)program.init(0, n);
    GPSA_LOG(Info) << "engine: resuming '" << program.name()
                   << "' at superstep " << report.resume_superstep;
  } else {
    GPSA_ASSIGN_OR_RETURN(
        values, backend.create_value_file(value_path, size, program.name()));
    const unsigned d0 = ValueFile::dispatch_column(0);
    const unsigned u0 = 1 - d0;
    for (VertexId i = 0; i < size; ++i) {
      const VertexId v = base + i;
      const Program::InitialState st =
          program.init(orig == nullptr ? v : orig[v], n);
      values.store(i, d0, make_slot(st.value, /*stale=*/!st.active));
      values.store(i, u0, make_slot(st.value, /*stale=*/true));
      latest_column[i] = static_cast<std::uint8_t>(d0);
      if (st.active) {
        worklist.set(i, d0);
      }
    }
  }

  // --- Dispatcher intervals (§V.A), in storage indices. ------------------
  std::vector<Interval> intervals =
      make_intervals(csr, options.num_dispatchers, base, base + size);
  GPSA_CHECK(!intervals.empty());
  for (Interval& interval : intervals) {
    interval.begin_vertex -= base;
    interval.end_vertex -= base;
  }

  // --- Message plane: destination ownership + batch-buffer pool. ---------
  // Contiguous per-computer slices come from the same interval machinery;
  // the partitioner may return fewer non-empty slices than requested on
  // tiny graphs, and we spawn exactly that many computers. On a cluster
  // rank every other rank's slice is one more owner, in rank order around
  // the computers' (owner r < rank is rank r).
  std::vector<VertexId> cuts{0};
  const unsigned first_local = peers == nullptr ? 0 : peers->rank();
  const unsigned ranks = peers == nullptr ? 1 : peers->slices().parts();
  for (unsigned r = 0; r < ranks; ++r) {
    if (r != first_local) {
      cuts.push_back(peers->slices().range_end(r));
      continue;
    }
    for (const Interval& slice :
         make_intervals(csr, options.num_computers, base, base + size)) {
      cuts.push_back(slice.end_vertex);
    }
  }
  const OwnerMap owners = OwnerMap::make_range(std::move(cuts));
  const unsigned local_owners = owners.parts() - (ranks - 1);
  // The pool outlives every actor of this job: despawn_job below destroys
  // the job's actors (and any leased buffers still in mailboxes) before
  // this frame unwinds. A rank's links own theirs: their transports
  // recycle batches after the job.
  std::optional<MessageBatchPool> own_pool;
  MessageBatchPool& pool = peers != nullptr
                               ? peers->pool()
                               : own_pool.emplace(options.message_batch);

  // --- One record stream + readahead scheduler per dispatcher. -----------
  std::vector<std::unique_ptr<CsrEntryStream>> streams;
  std::vector<std::unique_ptr<ReadaheadScheduler>> readaheads;
  streams.reserve(intervals.size());
  readaheads.reserve(intervals.size());
  for (const Interval& interval : intervals) {
    GPSA_ASSIGN_OR_RETURN(auto raw_stream,
                          backend.open_stream(csr.entry_path()));
    streams.push_back(
        std::make_unique<CsrEntryStream>(std::move(raw_stream), csr));
    readaheads.push_back(std::make_unique<ReadaheadScheduler>(
        io_config, streams.back().get(), &values, interval));
  }

  std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
  budget = std::min(budget, program.max_supersteps());
  if (options.max_supersteps != 0) {
    budget = std::min(budget, options.max_supersteps);
  }

  // --- Spawn and wire the actor ensemble under this job's namespace. -----
  std::vector<Payload>* const last_sent_plane =
      last_sent.has_value() ? &*last_sent : nullptr;
  // Computers by owner; null where the owner is a peer's slice.
  std::vector<ComputerActor*> by_owner(owners.parts(), nullptr);
  std::vector<ComputerActor*> computers;
  computers.reserve(local_owners);
  for (std::uint32_t c = first_local; c < first_local + local_owners; ++c) {
    by_owner[c] = computers.emplace_back(system.spawn_in_job<ComputerActor>(
        ctx.job_tag, c, std::ref(values), std::cref(program),
        std::ref(latest_column), std::ref(pool), std::cref(owners),
        std::ref(worklist), orig, base));
  }
  auto* manager = system.spawn_in_job<ManagerActor>(
      ctx.job_tag, std::ref(values), budget, checkpoint_interval,
      /*terminate_on_zero_updates=*/options.dispatch_inactive, &pool,
      ctx.cancel, ctx.progress, peers);
  std::vector<DispatcherActor*> dispatchers;
  dispatchers.reserve(intervals.size());
  DispatcherActor::Behavior behavior;
  behavior.overlap = options.overlap_dispatch_compute;
  behavior.dispatch_inactive = options.dispatch_inactive;
  for (std::uint32_t d = 0; d < intervals.size(); ++d) {
    dispatchers.push_back(system.spawn_in_job<DispatcherActor>(
        ctx.job_tag, d, intervals[d], base, std::cref(csr),
        std::ref(*streams[d]),
        std::ref(*readaheads[d]), std::ref(values), std::cref(program),
        std::cref(owners), std::ref(pool), options.message_batch, behavior,
        std::ref(worklist), last_sent_plane, orig));
  }
  for (DispatcherActor* dispatcher : dispatchers) {
    dispatcher->connect(by_owner, manager, peers);
  }
  for (ComputerActor* computer : computers) {
    computer->connect(manager);
  }
  manager->connect(dispatchers, computers);

  // --- Run. ---------------------------------------------------------------
  auto future = manager->result_future();
  if (peers != nullptr) {
    peers->connect(owners, by_owner, manager);
  }
  WallTimer timer;
  ManagerMsg start;
  start.kind = ManagerMsg::Kind::kStartRun;
  manager->send(start);
  const ManagerResult mres = future.get();
  const double elapsed = timer.elapsed_seconds();
  if (peers != nullptr) {
    peers->disconnect();
  }
  if (mres.failed) {
    // On a worker failure the other dispatchers may still be mid-iteration
    // writing their counters; despawn first (it waits for the group to
    // quiesce) and read nothing from the actors afterwards.
    system.despawn_job(ctx.job_tag);
    return internal_error("engine: worker failure: " + mres.error);
  }

  // --- Extract results, then retire the job's actor namespace. -----------
  // Counter reads are safe before despawn on the success path: every
  // dispatcher/computer write happened before the ack that let the manager
  // fulfil the promise future.get() returned from.
  RunResult out;
  out.supersteps = mres.supersteps;
  out.total_messages = mres.total_messages;
  out.total_updates = mres.total_updates;
  out.converged = mres.converged;
  out.cancelled = mres.cancelled;
  out.elapsed_seconds = elapsed;
  out.superstep_seconds = mres.superstep_seconds;
  out.superstep_messages = mres.superstep_messages;
  out.superstep_updates = mres.superstep_updates;
  out.superstep_active_vertices = mres.superstep_active;
  out.superstep_edges_touched = mres.superstep_edges;
  out.values.resize(size);
  // Inverse mapping on output: slot i holds internal vertex base + i's
  // payload; a one-rank run's array is keyed by original ids.
  for (VertexId i = 0; i < size; ++i) {
    out.values[peers == nullptr && orig != nullptr ? orig[i] : i] =
        slot_payload(values.load(i, latest_column[i]));
  }
  for (const DispatcherActor* dispatcher : dispatchers) {
    // Streamed-record volume is counted in the file's offset units (int32
    // entries for v1, compressed bytes for v2); vertex checks are 4-byte
    // value-slot reads in both.
    out.io.bytes_read += csr.unit_bytes() * dispatcher->entries_read_total() +
                         4 * dispatcher->vertex_checks_total();
    out.dispatcher_busy_seconds.push_back(dispatcher->busy_seconds());
  }
  out.io_backend = io_config.backend;
  for (std::size_t d = 0; d < streams.size(); ++d) {
    out.prefetch += streams[d]->counters();
    out.prefetch += readaheads[d]->value_counters();
  }
  out.readahead_hit_rate = out.prefetch.hit_rate();
  for (const ComputerActor* computer : computers) {
    out.io.bytes_written += 4 * computer->touches_total();
    out.computer_busy_seconds.push_back(computer->busy_seconds());
  }
  out.pool = pool.stats();
  out.csr_format = csr.format();
  out.csr_order = csr.order();
  out.csr_file_bytes = csr.entry_file_bytes();
  out.value_flush_syscalls = values.flush_syscalls();
  out.working_set_bytes =
      csr.entry_file_bytes() + ValueFile::file_size(size) +
      (static_cast<std::uint64_t>(n) + 1) * sizeof(std::uint64_t);
  system.despawn_job(ctx.job_tag);
  return out;
}

}  // namespace gpsa
