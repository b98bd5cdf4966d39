// The cluster layer: run_cluster_rank (a process per rank, over TCP) and
// ClusterEngine::run (a thread per rank, over socketpairs) run one rank
// body, run_rank. Its own jobs are the rendezvous, the final value sync,
// abort and the peer-death deadline; the supersteps are run_job's, with
// the rank's peer links (net/rank_links.hpp) carrying batches and barrier.
#include "cluster/cluster_net.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cluster/cluster_engine.hpp"
#include "core/job.hpp"
#include "core/ownership.hpp"
#include "graph/csr_file.hpp"
#include "graph/partition.hpp"
#include "io/io_backend.hpp"
#include "net/rank_links.hpp"
#include "net/socket.hpp"
#include "net/wire_frame.hpp"
#include "platform/file_util.hpp"
#include "storage/value_file.hpp"
#include "util/check.hpp"
#include "util/knobs.hpp"
#include "util/thread.hpp"
#include "util/timer.hpp"

namespace gpsa {

/// FNV-1a over the facts every rank must agree on before values can mix
/// (contract in cluster_net.hpp). Format and order are mixed as u64s so
/// e.g. a v2/degree rank and a v1/none rank abort at HELLO instead of
/// exchanging values keyed by different id spaces.
std::uint64_t cluster_graph_fingerprint(std::uint64_t num_vertices,
                                        std::uint64_t num_edges,
                                        std::uint32_t ranks,
                                        const std::string& program_name,
                                        CsrFormat format, CsrOrder order) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>((v >> shift) & 0xffu));
    }
  };
  mix_u64(num_vertices);
  mix_u64(num_edges);
  mix_u64(ranks);
  for (char c : program_name) {
    mix_byte(static_cast<std::uint8_t>(c));
  }
  mix_u64(static_cast<std::uint64_t>(format));
  mix_u64(static_cast<std::uint64_t>(order));
  return h;
}

namespace {

// Crash-injection state for the fork-based crash tests. Plain globals:
// they are only ever set inside a freshly forked, single-threaded child.
int g_net_crash_at_superstep = -1;
int g_checkpoint_crash_after_flushes = -1;

using ValueEntries = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Blocking read of one frame (rendezvous only — after bootstrap the
/// poller owns all reads). Bytes read past the frame stay buffered in
/// `decoder`, which is later handed to the poller.
Result<Frame> read_frame_blocking(const Socket& socket, FrameDecoder& decoder,
                                  int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  Frame frame;
  for (;;) {
    GPSA_ASSIGN_OR_RETURN(const bool ready, decoder.next(frame));
    if (ready) {
      return frame;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) {
      return io_error("timed out waiting for a handshake frame");
    }
    GPSA_ASSIGN_OR_RETURN(
        const bool readable,
        wait_readable(socket, static_cast<int>(remaining)));
    if (!readable) {
      return io_error("timed out waiting for a handshake frame");
    }
    std::uint8_t buf[4096];
    bool eof = false;
    GPSA_ASSIGN_OR_RETURN(const std::size_t got,
                          recv_nonblocking(socket, buf, sizeof(buf), eof));
    if (got > 0) {
      decoder.feed(buf, got);
    }
    if (eof && got == 0) {
      return failed_precondition("peer closed the connection mid-handshake");
    }
  }
}

/// Direct (non-actor) frame send, for the handshake and for aborting it.
Status send_frame_direct(const Socket& socket, std::uint16_t version,
                         FrameType type, std::uint16_t src_rank,
                         const std::vector<std::uint8_t>& payload,
                         int timeout_ms) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, version, type, src_rank, /*seq=*/0, payload.data(),
               payload.size());
  return send_all(socket, wire.data(), wire.size(), timeout_ms);
}

Status abort_handshake(const Socket& socket, std::uint16_t rank,
                       int timeout_ms, const std::string& reason) {
  std::vector<std::uint8_t> payload(reason.begin(), reason.end());
  // Best-effort: the connection is being torn down either way.
  (void)send_frame_direct(socket, kWireVersionMax, FrameType::kAbort, rank,
                          payload, timeout_ms);
  return failed_precondition("handshake rejected: " + reason);
}

/// Bootstrap: connect to every lower rank, accept from every higher rank
/// on `listener` (bound by the caller; invalid on the highest rank),
/// Hello/HelloAck on each link. Returns links indexed by peer rank (the
/// self slot left empty); the listener closes on return.
Result<std::vector<PeerLink>> run_rendezvous(const ClusterNetOptions& net,
                                             std::uint64_t fingerprint,
                                             Socket listener) {
  std::vector<PeerLink> links(net.ranks);
  const auto self = static_cast<std::uint16_t>(net.rank);
  // Connector side (toward lower ranks): Hello, then wait for HelloAck.
  for (std::uint32_t p = 0; p < net.rank; ++p) {
    GPSA_ASSIGN_OR_RETURN(
        Socket socket,
        tcp_connect_retry(static_cast<std::uint16_t>(net.base_port + p),
                          net.timeout_ms));
    GPSA_RETURN_IF_ERROR(set_nodelay(socket));
    HelloPayload hello;
    hello.version_min = kWireVersionMin;
    hello.version_max = kWireVersionMax;
    hello.rank = net.rank;
    hello.ranks = net.ranks;
    hello.graph_fingerprint = fingerprint;
    GPSA_RETURN_IF_ERROR(send_frame_direct(socket, kWireVersionMax,
                                           FrameType::kHello, self,
                                           hello.encode(), net.timeout_ms));
    PeerLink link;
    link.rank = p;
    link.socket = std::move(socket);
    GPSA_ASSIGN_OR_RETURN(
        Frame frame,
        read_frame_blocking(link.socket, link.decoder, net.timeout_ms));
    if (frame.header.type == FrameType::kAbort) {
      return failed_precondition(
          "rank " + std::to_string(p) + " rejected the handshake: " +
          std::string(frame.payload.begin(), frame.payload.end()));
    }
    if (frame.header.type != FrameType::kHelloAck) {
      return corrupt_data("expected HelloAck from rank " + std::to_string(p) +
                          ", got " + frame_type_name(frame.header.type));
    }
    GPSA_ASSIGN_OR_RETURN(const HelloAckPayload ack,
                          HelloAckPayload::decode(frame.payload));
    if (ack.version < kWireVersionMin || ack.version > kWireVersionMax) {
      return failed_precondition("rank " + std::to_string(p) +
                                 " negotiated unsupported wire version " +
                                 std::to_string(ack.version));
    }
    link.version = ack.version;
    links[p] = std::move(link);
  }
  // Acceptor side (from higher ranks): validate Hello, reply HelloAck.
  const std::uint32_t expected = net.ranks - net.rank - 1;
  for (std::uint32_t i = 0; i < expected; ++i) {
    GPSA_ASSIGN_OR_RETURN(Socket socket,
                          tcp_accept(listener, net.timeout_ms));
    GPSA_RETURN_IF_ERROR(set_nodelay(socket));
    PeerLink link;
    link.socket = std::move(socket);
    GPSA_ASSIGN_OR_RETURN(
        Frame frame,
        read_frame_blocking(link.socket, link.decoder, net.timeout_ms));
    if (frame.header.type != FrameType::kHello) {
      return corrupt_data(std::string("expected Hello on an accepted "
                                      "connection, got ") +
                          frame_type_name(frame.header.type));
    }
    GPSA_ASSIGN_OR_RETURN(const HelloPayload hello,
                          HelloPayload::decode(frame.payload));
    if (hello.ranks != net.ranks) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             "cluster size mismatch: peer expects " +
                                 std::to_string(hello.ranks) + " ranks, not " +
                                 std::to_string(net.ranks));
    }
    if (hello.graph_fingerprint != fingerprint) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             "graph fingerprint mismatch (different dataset, "
                             "program, or partition?)");
    }
    if (hello.rank <= net.rank || hello.rank >= net.ranks) {
      return abort_handshake(
          link.socket, self, net.timeout_ms,
          "unexpected connector rank " + std::to_string(hello.rank));
    }
    if (links[hello.rank].socket.valid()) {
      return abort_handshake(
          link.socket, self, net.timeout_ms,
          "duplicate connection from rank " + std::to_string(hello.rank));
    }
    auto version = negotiate_version(kWireVersionMin, kWireVersionMax,
                                     hello.version_min, hello.version_max);
    if (!version.is_ok()) {
      return abort_handshake(link.socket, self, net.timeout_ms,
                             version.status().message());
    }
    link.rank = hello.rank;
    link.version = version.value();
    HelloAckPayload ack;
    ack.version = version.value();
    GPSA_RETURN_IF_ERROR(send_frame_direct(link.socket, version.value(),
                                           FrameType::kHelloAck, self,
                                           ack.encode(), net.timeout_ms));
    links[hello.rank] = std::move(link);
  }
  return links;
}

/// The final value sync toward rank 0: VALUES frames under the payload
/// cap, the last one marked final_sync. Returns the frames sent.
Traffic send_final_values(RankLinks& peers, std::uint64_t superstep,
                          const ValueEntries& entries) {
  Traffic sent;
  constexpr std::size_t kMaxEntriesPerFrame = (kMaxFramePayload - 13) / 8;
  std::size_t i = 0;
  do {
    const std::size_t count =
        std::min(kMaxEntriesPerFrame, entries.size() - i);
    ValuesPayload payload;
    payload.superstep = superstep;
    payload.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(i),
                           entries.begin() +
                               static_cast<std::ptrdiff_t>(i + count));
    i += count;
    payload.final_sync = i >= entries.size() ? 1 : 0;
    std::vector<std::uint8_t> bytes = payload.encode();
    sent.add(bytes.size());
    peers.send(0, FrameType::kValues, std::move(bytes));
  } while (i < entries.size());
  return sent;
}


/// Rank 0's end of the final value sync: every rank's entries, its own
/// included, into `values`, which must end up with exactly one entry per
/// vertex of the `n`-vertex graph.
Status merge_values(const std::vector<ValuesPayload>& slices, VertexId n,
                    std::vector<Payload>& values) {
  values.assign(n, 0);
  std::vector<bool> seen(n, false);
  std::uint64_t count = 0;
  for (const ValuesPayload& slice : slices) {
    for (const auto& [vertex, payload] : slice.entries) {
      if (vertex >= n) {
        return corrupt_data("VALUES entry for vertex " +
                            std::to_string(vertex) + " outside the graph");
      }
      if (seen[vertex]) {
        return corrupt_data("VALUES entry for vertex " +
                            std::to_string(vertex) + " repeated");
      }
      seen[vertex] = true;
      values[vertex] = payload;
      ++count;
    }
  }
  if (count != n) {
    return corrupt_data("the final value sync covered " +
                        std::to_string(count) + " of " + std::to_string(n) +
                        " vertices");
  }
  return Status::ok();
}

/// What every rank derives identically from the graph: the CSR file,
/// written once per plan the way Engine::run writes one (format and order
/// from GPSA_CSR_FORMAT / GPSA_CSR_ORDER); its partition into rank slices;
/// and the node value files' backend and directory — value_store_dir, or
/// else the plan's scratch directory, which also holds the CSR and goes
/// with the plan. In one process, every rank reads the same plan.
struct ClusterPlan {
  ScratchDir scratch;
  CsrFileReader csr;
  OwnerMap slices;
  IoConfig io_config;
  std::unique_ptr<IoBackend> backend;
  std::string store_dir;
};

std::string node_value_path(const std::string& dir, unsigned node) {
  return dir + "/node" + std::to_string(node) + ".values";
}

/// Rejects option values no rank can run with, before any thread or
/// socket exists.
Status validate_cluster_options(const ClusterOptions& options) {
  if (options.scheduler_workers > ClusterOptions::kMaxSchedulerWorkers) {
    return invalid_argument(
        "cluster: scheduler_workers must be at most " +
        std::to_string(ClusterOptions::kMaxSchedulerWorkers) + ", got " +
        std::to_string(options.scheduler_workers));
  }
  if (options.message_batch == 0) {
    return invalid_argument("cluster: message_batch must be >= 1");
  }
  return Status::ok();
}

/// Writes the CSR and splits it into (at most) `parts` slices.
Result<ClusterPlan> make_cluster_plan(const EdgeList& graph,
                                      const ClusterOptions& options,
                                      unsigned parts) {
  GPSA_ASSIGN_OR_RETURN(ScratchDir scratch, ScratchDir::create("cluster"));
  const CsrFormat format = resolve_csr_format(std::nullopt);
  const CsrOrder order = resolve_csr_order(std::nullopt);
  if (format == CsrFormat::kV1 && order != CsrOrder::kNone) {
    return invalid_argument(
        "cluster: csr order '" + std::string(csr_order_name(order)) +
        "' requires csr format v2 (set GPSA_CSR_FORMAT=v2)");
  }
  const std::string csr_path = scratch.file("graph.csr");
  GPSA_RETURN_IF_ERROR(preprocess_edges_to_csr(
      graph, csr_path, /*with_degree=*/true, format, order));
#if defined(__GLIBC__)
  // The preprocessing's in-memory CSR is freed, but glibc keeps its pages:
  // hand them back before the file's pages map in (cluster2-pokec rss_mb
  // 33 -> 30 MB).
  malloc_trim(0);
#endif
  GPSA_ASSIGN_OR_RETURN(CsrFileReader csr, CsrFileReader::open(csr_path));
  const auto intervals = make_intervals(csr, parts);
  GPSA_CHECK(!intervals.empty());

  GPSA_ASSIGN_OR_RETURN(const IoConfig io_config, options.io.resolve());
  GPSA_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> backend,
                        IoBackend::create(io_config));
  std::string store_dir = options.value_store_dir;
  if (store_dir.empty()) {
    store_dir = scratch.path();
  } else {
    std::error_code ec;
    std::filesystem::create_directories(store_dir, ec);
    if (ec) {
      return io_error("cluster: cannot create value store dir " + store_dir +
                      ": " + ec.message());
    }
  }
  return ClusterPlan{std::move(scratch),
                     std::move(csr),
                     OwnerMap::make_range_from_intervals(intervals),
                     io_config,
                     std::move(backend),
                     std::move(store_dir)};
}

/// Runs rank `net.rank` until the cluster halts, over `links` (indexed by
/// peer rank, the self slot empty): the engine's own job over the rank's
/// slice, its peer links carrying the batches and the barrier. Returns
/// this rank's view (run_cluster_rank's contract) without elapsed time and
/// without checkpointing the store. On a failure, `on_abort` (when set)
/// hears the status before any peer is told: the first status it hears in
/// a process is where the failure started.
Result<ClusterRunResult> run_rank(
    ClusterPlan& plan, const Program& program, const ClusterOptions& options,
    const ClusterNetOptions& net, std::vector<PeerLink> links,
    const std::function<void(const Status&)>& on_abort) {
  const unsigned workers = std::max(1U, options.scheduler_workers);
  RankLinks peers(net.rank, plan.slices, std::move(links), workers,
                  options.message_batch, net.timeout_ms);
  peers.crash_at_superstep = g_net_crash_at_superstep;
  // Any failure: tell the survivors why (best-effort), then tear down.
  auto abort_run = [&](Status status) -> Status {
    if (on_abort) {
      on_abort(status);
    }
    peers.abort(status);
    return status;
  };
  const Status started = peers.start();
  if (!started.is_ok()) {
    return abort_run(started);
  }

  // The engine's own job over the slice: a dispatcher and a computer per
  // worker.
  EngineOptions job_options;
  job_options.num_dispatchers = workers;
  job_options.num_computers = workers;
  job_options.message_batch = options.message_batch;
  job_options.max_supersteps = options.max_supersteps;
  std::atomic<std::uint64_t> progress{0};
  JobContext ctx;
  ctx.csr = &plan.csr;
  ctx.backend = plan.backend.get();
  ctx.io_config = &plan.io_config;
  ctx.system = &peers.system();
  ctx.progress = &progress;
  ctx.peers = &peers;
  // The peer-death deadline: a timeout without a completed superstep
  // means a peer died, stalled or never arrived.
  std::promise<void> done;
  std::thread watchdog([&peers, &progress, &net, over = done.get_future()] {
    for (std::uint64_t seen = 0;
         over.wait_for(std::chrono::milliseconds(net.timeout_ms)) !=
         std::future_status::ready;) {
      const std::uint64_t now = progress.load();
      if (now == seen) {
        peers.fail(io_error("no superstep completed in " +
                            std::to_string(net.timeout_ms) +
                            " ms (peer dead or stalled?)"));
      }
      seen = now;
    }
  });
  Result<RunResult> ran = internal_error("cluster rank: job did not run");
  try {
    ran = run_job(ctx, program, job_options,
                  node_value_path(plan.store_dir, net.rank),
                  /*resume=*/false);
  } catch (const std::exception& e) {
    ran = internal_error("cluster rank " + std::to_string(net.rank) + ": " +
                         e.what());
  }
  done.set_value();
  watchdog.join();
  if (!ran.is_ok()) {
    const Status first = peers.error();  // the links' own failure, if any
    return abort_run(first.is_ok() ? ran.status() : first);
  }

  // Every rank closed every superstep from the same send matrix.
  ClusterRunResult result;
  result.supersteps = ran.value().supersteps;
  result.total_messages = ran.value().total_messages;
  result.converged = ran.value().converged;
  MatrixTotals totals = peers.totals();
  result.remote_messages = totals.remote_messages;
  result.remote_batches = totals.remote_batches;
  result.bytes_on_wire = totals.wire.bytes;
  result.frames_sent = totals.wire.frames;
  result.superstep_wire_bytes = std::move(totals.superstep_wire_bytes);
  result.node_messages_sent = std::move(totals.node_messages_sent);
  result.node_messages_received = std::move(totals.node_messages_received);

  // Final value sync: every rank's slice lands in rank 0's value vector,
  // keyed by original ids. Its frames count toward the totals of the rank
  // that sent or received them.
  const VertexId begin = plan.slices.range_begin(net.rank);
  const std::span<const VertexId> perm = plan.csr.permutation();
  ValueEntries entries;
  entries.reserve(ran.value().values.size());
  for (VertexId i = 0; i < ran.value().values.size(); ++i) {
    entries.emplace_back(perm.empty() ? begin + i : perm[begin + i],
                         ran.value().values[i]);
  }
  Traffic tail;
  Status synced;
  if (net.rank == 0) {
    std::vector<ValuesPayload> slices;
    synced = peers.wait_values(slices, tail);
    if (synced.is_ok()) {
      slices.emplace_back().entries = std::move(entries);
      synced = merge_values(slices, plan.csr.num_vertices(), result.values);
    }
  } else {
    tail = send_final_values(peers, result.supersteps, entries);
  }
  result.bytes_on_wire += tail.bytes;
  result.frames_sent += tail.frames;
  // Quiesce: every queued frame reaches the kernel before the links close.
  if (synced.is_ok()) {
    synced = peers.fence();
  }
  if (!synced.is_ok()) {
    return abort_run(synced);
  }
  return result;
}

}  // namespace

Result<ClusterNetOptions> ClusterNetOptions::from_env() {
  ClusterNetOptions net;
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t rank,
                        knob<std::uint64_t>("GPSA_CLUSTER_RANK"));
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t ranks,
                        knob<std::uint64_t>("GPSA_CLUSTER_RANKS"));
  if (rank >= ranks) {
    return invalid_argument("GPSA_CLUSTER_RANK " + std::to_string(rank) +
                            " out of range for GPSA_CLUSTER_RANKS " +
                            std::to_string(ranks));
  }
  net.rank = static_cast<std::uint32_t>(rank);
  net.ranks = static_cast<std::uint32_t>(ranks);
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t port,
                        knob<std::uint64_t>("GPSA_CLUSTER_PORT"));
  if (port + ranks > 65536) {
    return invalid_argument("GPSA_CLUSTER_PORT + GPSA_CLUSTER_RANKS exceeds "
                            "the port range");
  }
  net.base_port = static_cast<std::uint16_t>(port);
  GPSA_ASSIGN_OR_RETURN(const std::uint64_t timeout_ms,
                        knob<std::uint64_t>("GPSA_NET_TIMEOUT_MS"));
  net.timeout_ms = static_cast<int>(timeout_ms);
  return net;
}

Result<ClusterRunResult> run_cluster_rank(const EdgeList& graph,
                                          const Program& program,
                                          const ClusterOptions& options,
                                          const ClusterNetOptions& net) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("run_cluster_rank: empty graph");
  }
  if (net.ranks == 0 || net.rank >= net.ranks) {
    return invalid_argument("run_cluster_rank: rank " +
                            std::to_string(net.rank) +
                            " out of range for ranks " +
                            std::to_string(net.ranks));
  }
  GPSA_RETURN_IF_ERROR(validate_cluster_options(options));

  WallTimer timer;
  // Listen before building anything: a peer that finishes its own build
  // first then waits in the accept backlog instead of being refused and
  // backing off.
  Socket listener;
  if (net.rank + 1 < net.ranks) {
    GPSA_ASSIGN_OR_RETURN(
        listener,
        tcp_listen(static_cast<std::uint16_t>(net.base_port + net.rank)));
  }
  GPSA_ASSIGN_OR_RETURN(ClusterPlan plan,
                        make_cluster_plan(graph, options, net.ranks));
  if (plan.slices.parts() != net.ranks) {
    return invalid_argument("run_cluster_rank: the partition produced " +
                            std::to_string(plan.slices.parts()) +
                            " slices for " + std::to_string(net.ranks) +
                            " ranks (graph too small for the rank count?)");
  }
  const std::uint64_t fingerprint =
      cluster_graph_fingerprint(n, graph.num_edges(), net.ranks,
                                program.name(), plan.csr.format(),
                                plan.csr.order());
  GPSA_ASSIGN_OR_RETURN(std::vector<PeerLink> links,
                        run_rendezvous(net, fingerprint, std::move(listener)));
  GPSA_ASSIGN_OR_RETURN(
      ClusterRunResult result,
      run_rank(plan, program, options, net, std::move(links), {}));
  result.elapsed_seconds = timer.elapsed_seconds();
  if (!options.value_store_dir.empty()) {
    GPSA_ASSIGN_OR_RETURN(
        ValueFile values,
        ValueFile::open(node_value_path(plan.store_dir, net.rank)));
    GPSA_RETURN_IF_ERROR(values.checkpoint(result.supersteps));
  }
  return result;
}

void set_cluster_net_crash_at_superstep(int superstep) {
  g_net_crash_at_superstep = superstep;
}

double ClusterRunResult::send_imbalance() const {
  if (node_messages_sent.empty()) {
    return 1.0;
  }
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t m : node_messages_sent) {
    max = std::max(max, m);
    sum += m;
  }
  const double mean =
      static_cast<double>(sum) / static_cast<double>(node_messages_sent.size());
  return mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
}

Result<ClusterRunResult> ClusterEngine::run(const EdgeList& graph,
                                            const Program& program,
                                            const ClusterOptions& options) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return invalid_argument("ClusterEngine: empty graph");
  }
  if (options.num_nodes == 0 || options.num_nodes > kMaxNodes) {
    return invalid_argument("ClusterEngine: num_nodes must be in [1, " +
                            std::to_string(kMaxNodes) + "], got " +
                            std::to_string(options.num_nodes));
  }
  GPSA_RETURN_IF_ERROR(validate_cluster_options(options));

  WallTimer timer;
  // Where a failed run started: the first status any rank aborts with. A
  // peer only learns of a failure from the failing rank's Abort frame or
  // its lost link, both of which follow that rank's record.
  Status first_failure;
  std::once_flag failed;
  auto record = [&](const Status& status) {
    std::call_once(failed, [&] { first_failure = status; });
  };
  std::vector<Result<ClusterRunResult>> results;
  {
    // The plan (the CSR file, and scratch value files) goes once every
    // rank has joined; the checkpoint sweep below needs only kept files.
    GPSA_ASSIGN_OR_RETURN(
        ClusterPlan plan,
        make_cluster_plan(graph, options, options.num_nodes));
    const unsigned nodes = plan.slices.parts();
    // A full mesh: links[a][b] is rank a's end of the a-b socketpair.
    std::vector<std::vector<PeerLink>> links(nodes);
    for (unsigned a = 0; a < nodes; ++a) {
      links[a].resize(nodes);
      for (unsigned b = 0; b < a; ++b) {
        GPSA_ASSIGN_OR_RETURN(auto pair, socket_pair());
        links[a][b].rank = b;
        links[a][b].socket = std::move(pair.first);
        links[b][a].rank = a;
        links[b][a].socket = std::move(pair.second);
      }
    }
    results.assign(nodes, internal_error("ClusterEngine: rank did not run"));
    timer.reset();
    std::vector<std::thread> threads;
    JoinGuard join(threads);
    for (unsigned node = 0; node < nodes; ++node) {
      threads.emplace_back([&, node] {
        set_current_thread_name("gpsa-rank" + std::to_string(node));
        ClusterNetOptions net;
        net.rank = node;
        net.ranks = nodes;
        try {
          results[node] = run_rank(
              plan, program, options, net, std::move(links[node]),
              record);
        } catch (const std::exception& e) {
          // Set-up threw (say, no thread for the rank's actors): fail this
          // rank; its closed links fail the peers.
          results[node] = internal_error("cluster rank " +
                                         std::to_string(node) + ": " +
                                         e.what());
          record(results[node].status());
        }
      });
    }
  }
  for (const auto& result : results) {
    if (!result.is_ok()) {
      return first_failure.is_ok() ? result.status() : first_failure;
    }
  }

  // Every rank holds the same counters; rank 0 also holds the values.
  ClusterRunResult out = std::move(results[0]).value();
  out.elapsed_seconds = timer.elapsed_seconds();

  // End-of-run checkpoint sweep of a kept store (scratch files are never
  // checkpointed), serial once every rank has joined: bump every node
  // file's completed-superstep header so a later validate/recover sees one
  // consistent cluster epoch. Each checkpoint is an independent flush, so
  // a crash mid-sweep leaves the headers disagreeing —
  // validate_value_stores detects exactly that.
  if (options.value_store_dir.empty()) {
    return out;
  }
  for (unsigned node = 0; node < results.size(); ++node) {
    if (g_checkpoint_crash_after_flushes >= 0 &&
        static_cast<int>(node) == g_checkpoint_crash_after_flushes) {
      ::_exit(0);  // crash injection: die between per-node flushes
    }
    GPSA_ASSIGN_OR_RETURN(
        ValueFile values,
        ValueFile::open(node_value_path(options.value_store_dir, node)));
    GPSA_RETURN_IF_ERROR(values.checkpoint(out.supersteps));
  }
  return out;
}

void set_cluster_checkpoint_crash_after_flushes(int flushes) {
  g_checkpoint_crash_after_flushes = flushes;
}

Result<std::uint64_t> ClusterEngine::validate_value_stores(
    const std::string& dir, unsigned num_nodes,
    const std::string& expected_app_tag) {
  // The partitioners drop empty slices, so a run over fewer vertices than
  // nodes leaves fewer files than num_nodes, and this full-set check
  // rejects it.
  if (num_nodes == 0) {
    return corrupt_data("cluster store invalid: no node files under " + dir);
  }
  std::uint64_t common = 0;
  for (unsigned node = 0; node < num_nodes; ++node) {
    auto file = ValueFile::open(node_value_path(dir, node));
    if (!file.is_ok()) {
      return corrupt_data("cluster store invalid: node " +
                          std::to_string(node) + " unreadable (" +
                          file.status().to_string() + ")");
    }
    if (file.value().app_tag() != expected_app_tag) {
      return corrupt_data("cluster store invalid: node " +
                          std::to_string(node) + " app tag '" +
                          file.value().app_tag() + "' != expected '" +
                          expected_app_tag + "'");
    }
    const std::uint64_t completed = file.value().completed_supersteps();
    if (node == 0) {
      common = completed;
    } else if (completed != common) {
      return corrupt_data("cluster store torn: node " + std::to_string(node) +
                          " completed " + std::to_string(completed) +
                          " supersteps but an earlier node completed " +
                          std::to_string(common) +
                          " (crash between per-node checkpoint flushes)");
    }
  }
  return common;
}

}  // namespace gpsa
