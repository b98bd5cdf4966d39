// Dispatching actor (paper §V.D, Algorithm 2).
//
// Owns one vertex interval of the memory-mapped CSR file. On
// ITERATION_START it walks its interval's active vertices: each has one
// message generated per out-edge via Program::gen_msg, routed to the
// computing actor that owns the destination (OwnerMap: contiguous vertex
// ranges) in batches, and is then consumed (flag re-set to 1). On a
// cluster rank an owner may be a peer rank's whole slice instead; its
// messages leave combined through the rank's peer links
// (core/peer_links.hpp).
// When the interval is exhausted it reports DISPATCH_OVER with its
// message/active/edge counts and waits for the next command.
//
// One dispatch loop finds the active vertices: it scans the interval's
// words of the active bitmap's dispatch generation (countr_zero per set
// bit, popcount to count the batch), jumps the entry cursor straight to
// offsets[v] for each set bit, and clears the interval's bits afterwards —
// O(active) per superstep. A set bit is exactly a clear stale flag, so the
// dispatched set is the one Algorithm 2's stale-flag scan visits
// (DESIGN.md §12). The dispatch_inactive ablation sets every bit of the
// interval first, so the same loop then visits every vertex.
//
// Message-plane mechanics (DESIGN.md §11), one staging path: each message
// goes to its owner, then into one of the owner's 256 radix bins (over the
// owner's dense local range, appended in arrival order); a flush
// concatenates the bins into a buffer leased from the engine's
// MessageBatchPool with sequential copies. The computer therefore applies
// each batch in ascending-dst order — near-sequential value-column writes
// — and recycles the buffer; the dispatcher never re-scans a batch to
// sort it.
//
// On a cluster rank the messages to a peer's slice stay in their bins
// for the whole interval (that owner's flush threshold is never reached,
// so the edge loop's threshold test stays as predictable as on a
// one-node run), and the interval-end flush combines them: each bin's
// 2^shift consecutive destinations fold through a small accumulator into
// one partial per destination, emitted in ascending order in frames of
// at most one pool batch's bytes. A sum-fold program's partial is the
// exact sum (fixed_add of payload_to_fixed, what the receiver's fold
// adds), and a term or sum out of the fold's range throws here, on the
// sender, as it would have on the receiver; any other program's is the
// Program::compute fold of the messages. Local owners never combine
// (program.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "actor/actor.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "graph/csr_file.hpp"
#include "graph/partition.hpp"
#include "io/csr_stream.hpp"
#include "io/readahead.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ComputerActor;
class ManagerActor;
class PeerLinks;

class DispatcherActor final : public Actor<DispatcherMsg> {
 public:
  struct Behavior {
    /// Flush batches as they fill (true) or only at interval end (false).
    bool overlap = true;
    /// Seed every bit of the interval each superstep and dispatch every
    /// vertex, stale or not (ablation).
    bool dispatch_inactive = false;
  };

  /// `interval` indexes the value file, `worklist` and `last_sent`; its
  /// vertex v is graph vertex `base` + v (a cluster rank's storage covers
  /// its slice only), and its entry offsets are the CSR file's.
  /// `stream` carries the interval's record bytes (the reader supplies
  /// only metadata: offsets, degree flag); `readahead` runs the window
  /// policy over it and the value file. `owners` routes destinations and
  /// `pool` supplies batch buffers. `worklist` is the active bitmap whose
  /// dispatch generation the dispatcher iterates and clears over its
  /// interval. `last_sent` (non-null only for delta programs) is the
  /// per-vertex last-dispatched-value plane; this dispatcher writes only
  /// its own interval's entries. `orig_ids` (non-null only for renumbered
  /// v2 files) maps internal ids back to original ones at the Program
  /// boundary: gen_msg sees original src/dst, while routing, staging and
  /// value-file indexing stay in internal ids. All references must
  /// outlive the actor.
  DispatcherActor(std::uint32_t id, Interval interval, VertexId base,
                  const CsrFileReader& csr, CsrEntryStream& stream,
                  ReadaheadScheduler& readahead, ValueFile& values,
                  const Program& program, const OwnerMap& owners,
                  MessageBatchPool& pool, std::size_t batch_size,
                  Behavior behavior, ActiveBitmap& worklist,
                  std::vector<Payload>* last_sent = nullptr,
                  const VertexId* orig_ids = nullptr);

  /// Wiring is two-phase: computers and the manager are spawned after the
  /// dispatchers, then connected before the run starts. computers.size()
  /// must equal owners.parts(); a null entry is a peer's slice, reached
  /// through `peers`.
  void connect(std::vector<ComputerActor*> computers, ManagerActor* manager,
               PeerLinks* peers = nullptr);

  /// CSR entries belonging to dispatched records (degree + targets +
  /// sentinel) — the dispatcher's fundamental sequential-read volume.
  std::uint64_t entries_read_total() const { return entries_read_total_; }

  /// Vertices examined (one value-slot check each per superstep).
  std::uint64_t vertex_checks_total() const { return vertex_checks_total_; }

  /// Wall time spent inside run_iteration — the engine derives per-
  /// dispatcher idle time (elapsed - busy) from it for the partition
  /// ablation.
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void on_message(DispatcherMsg msg) override;

 private:
  /// Bin count of the per-owner radix scatter: 256 bins over the owner's
  /// dense local range keep the counting arrays on one worker's stack
  /// while ordering each batch to ~1/256th-of-a-slice granularity.
  static constexpr std::size_t kRadixBins = 256;

  void run_iteration(std::uint64_t superstep);
  /// Iterates + clears the interval's slice of the dispatch generation.
  void run_worklist(std::uint64_t superstep, unsigned dispatch_col);
  /// Streams active vertex base_ + `v`'s record and stages its messages.
  void dispatch_vertex(VertexId v, Payload value, std::uint64_t begin_entry,
                       std::uint64_t end_entry, std::uint64_t superstep);
  void flush_batch(std::size_t computer_index, std::uint64_t superstep);
  /// Combines `owner`'s staged bins (a peer's slice) into partials and
  /// sends them through the peer links.
  void flush_partials(std::size_t owner, std::uint64_t superstep);
  void flush_all(std::uint64_t superstep);
  /// Drops every staged message and partial (a failed superstep).
  void clear_staging();
  /// Concatenates `owner`'s staged bins (ascending, arrival order within
  /// a bin) into `out` and clears them (the ordered flush).
  void gather_bins(std::size_t owner, std::vector<VertexMessage>& out);

  const std::uint32_t id_;
  const Interval interval_;
  const VertexId base_;
  const CsrFileReader& csr_;
  CsrEntryStream& stream_;
  ReadaheadScheduler& readahead_;
  ValueFile& values_;
  const Program& program_;
  const OwnerMap& owners_;
  MessageBatchPool& pool_;
  const std::size_t batch_size_;
  const Behavior behavior_;
  /// The job's active bitmap (engine-owned).
  ActiveBitmap& worklist_;
  /// Delta programs' last-dispatched-value plane (engine-owned; this
  /// dispatcher reads/writes only its interval's entries, so the
  /// single-writer rule needs no synchronization). nullptr otherwise.
  std::vector<Payload>* const last_sent_;
  /// Renumbered files' internal -> original id map; nullptr = identity.
  const VertexId* const orig_ids_;

  std::vector<ComputerActor*> computers_;
  ManagerActor* manager_ = nullptr;
  PeerLinks* peers_ = nullptr;

  // Flat parts x kRadixBins bucketed staging. Pushes append to the
  // destination's bin; flushes gather the bins in ascending order with
  // sequential copies. Bin vectors are allocated lazily during warm-up
  // and keep their capacity, so steady-state supersteps stay
  // allocation-free on this path too.
  std::vector<std::vector<VertexMessage>> bins_;
  // Staged-message count per owner (the flush trigger; summing 256 bin
  // sizes per push would defeat the point).
  std::vector<std::size_t> staged_count_;
  // Per-owner radix shift: (local_size - 1) >> shift < kRadixBins.
  std::vector<unsigned> radix_shift_;
  // Per-owner staged count at which dispatch flushes: message_batch, or
  // never (SIZE_MAX) for a peer's slice and the non-overlap ablation.
  std::vector<std::size_t> flush_at_;
  // flush_partials' accumulator over one bin's destinations: partial (an
  // exact FixedSum, or a compute-folded payload), message count, and one
  // bit per destination holding a partial.
  std::vector<std::uint64_t> partial_;
  std::vector<std::uint32_t> partial_count_;
  std::vector<std::uint64_t> partial_set_;
  // Partials per send_partials (PeerLinks::max_partials).
  std::size_t partials_per_send_ = 1;
  bool uniform_message_ = false;
  bool has_degree_ = false;
  std::uint64_t messages_this_superstep_ = 0;
  std::uint64_t entries_read_total_ = 0;
  std::uint64_t vertex_checks_total_ = 0;
  // Per-superstep work-done counters reported in DISPATCH_OVER: vertices
  // dispatched, record entries streamed, and vertex checks performed (one
  // per set bit).
  std::uint64_t dispatched_this_superstep_ = 0;
  std::uint64_t entries_this_superstep_ = 0;
  std::uint64_t checks_this_superstep_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace gpsa
