// Computing actor (paper §V.D, Algorithm 3).
//
// Message-driven: each VertexMessage batch is folded into the update
// column of the value file. The first message a vertex receives in a
// superstep seeds the accumulator from the vertex's freshest stored
// payload (see the latest-column note in value_file.hpp /
// engine.hpp) via Program::first_update; subsequent messages fold into the
// in-progress accumulator. An update clears the stale flag so next
// superstep's dispatcher picks the vertex up; a first message that does
// *not* change the value still writes the copied payload with the flag
// set — the paper's "negative value" write — keeping the update column's
// payload fresh.
//
// Sum-fold programs (Program::sum_fold, PageRank) fold exactly: every
// message adds to its vertex's FixedSum in the slice's SliceSumFold. A
// vertex's first message copies its stored value into the update column
// as above, still stale, and seeds the sum; at COMPUTE_OVER, before the
// ack, store_sums rounds each sum once and only then decides activation
// with Program::changed against that copied value — storing the sum,
// clearing the flag, setting the worklist bit and counting the update.
// It walks the slice in ascending order, so its stores stream and its
// worklist bits go out one atomic OR per word. Each dispatcher's stream
// is deterministic, but the interleaving of several dispatchers' batches
// at this actor follows the schedule; an exact sum erases it, and
// deciding activation on the whole sum erases it from
// PageRankDeltaProgram's epsilon gate too, so results are bit-identical
// at any shape and worker count while every message is still applied as
// it arrives. (Rounding after every message instead cost ~35% more apply
// time: the conversion and slot store sit on each message's path.)
//
// Message-plane contract (DESIGN.md §11): this actor owns one contiguous
// vertex slice, so its value-file and latest-column writes never share a
// cache line with another computer, and batches arrive radix-staged in
// ascending-dst order — the apply loop walks the slice near-sequentially.
// Drained batch buffers are recycled into the engine's MessageBatchPool,
// closing the zero-allocation loop with the dispatchers' leases.
//
// COMPUTE_OVER (sent by the manager only after every dispatcher finished,
// hence after every batch of the superstep is already enqueued) is acked
// back with the number of vertices this actor updated.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "actor/actor.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ManagerActor;

class ComputerActor final : public Actor<ComputerMsg> {
 public:
  /// `worklist` receives the activation bit for every vertex this actor
  /// updates: set in the update column's generation inside the same
  /// first-update branch that clears the slot's stale flag, so bit and
  /// flag can never disagree (the bitmap/stale-flag invariant, DESIGN.md
  /// §12). `orig_ids` (non-null only for renumbered v2 files) translates
  /// the vertex id handed to Program::first_update back to the original
  /// id; storage indexing stays internal. `owners` gives this actor's
  /// slice (owner `id`).
  ComputerActor(std::uint32_t id, ValueFile& values, const Program& program,
                std::vector<std::uint8_t>& latest_column,
                MessageBatchPool& pool, const OwnerMap& owners,
                ActiveBitmap& worklist, const VertexId* orig_ids = nullptr);

  void connect(ManagerActor* manager);

  std::uint64_t updates_total() const { return updates_total_; }

  /// First-message events (one value-slot write each, even for
  /// non-updates — the "negative value" copy).
  std::uint64_t touches_total() const { return touches_total_; }

  /// Wall time spent applying batches (the compute-side complement of
  /// DispatcherActor::busy_seconds for the message-plane bench).
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void on_message(ComputerMsg msg) override;

 private:
  void apply(const VertexMessage& message, unsigned update_col);

  /// v's first message of the superstep: returns v's freshest stored
  /// payload and makes the update column v's latest.
  Payload first_touch(VertexId v, unsigned update_col);

  /// first_touch for a sum-fold program: also copies the payload into the
  /// update column, still stale, and returns first_update's seed.
  Payload first_sum_touch(VertexId v, unsigned update_col);

  /// Stores `value` as v's update (stale flag clear) and counts it; the
  /// caller sets v's worklist bit.
  void store_update(VertexId v, unsigned update_col, Payload value);

  /// Activates every vertex summed this superstep whose rounded exact sum
  /// counts as changed against its stored value (sum-fold programs).
  void store_sums(unsigned update_col);

  /// Sends the manager kWorkerFailed for `superstep`.
  void report_failure(std::uint64_t superstep, const std::exception& e);

  const std::uint32_t id_;
  ValueFile& values_;
  const Program& program_;
  /// Which column holds vertex v's freshest payload. Shared array, but
  /// entry v is only ever written by the computer owning v.
  std::vector<std::uint8_t>& latest_column_;
  MessageBatchPool& pool_;
  /// The job's active bitmap (engine-owned).
  ActiveBitmap& worklist_;
  /// Renumbered files' internal -> original id map; nullptr = identity.
  const VertexId* const orig_ids_;
  /// Program::sum_fold(), read once.
  const bool sum_fold_;
  /// Sum-fold programs' exact message sums over the slice.
  SliceSumFold sums_;

  ManagerActor* manager_ = nullptr;
  std::uint64_t updates_this_superstep_ = 0;
  std::uint64_t updates_total_ = 0;
  std::uint64_t touches_total_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace gpsa
