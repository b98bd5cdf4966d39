// Computing actor (paper §V.D, Algorithm 3).
//
// Message-driven: each VertexMessage batch, and on a cluster rank each
// piece of a peer's partials, is folded into the update column of the
// value file by the actor's SliceApply (core/slice_apply.hpp, the one
// apply kernel every executor shares); this actor adds only the mailbox,
// the failure report and the COMPUTE_OVER ack.
//
// Message-plane contract (DESIGN.md §11): this actor owns one contiguous
// vertex slice, so its value-file and latest-column writes never share a
// cache line with another computer, and batches arrive radix-staged in
// ascending-dst order — the apply loop walks the slice near-sequentially.
// Drained batch buffers are recycled into the engine's MessageBatchPool,
// closing the zero-allocation loop with the dispatchers' leases.
//
// COMPUTE_OVER (sent by the manager only after every dispatcher finished,
// hence after every batch of the superstep is already enqueued) publishes
// the slice's exact sums and is acked back with the number of vertices
// this actor updated.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "actor/actor.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "core/slice_apply.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ManagerActor;

class ComputerActor final : public Actor<ComputerMsg> {
 public:
  /// `worklist` receives the activation bit for every vertex this actor
  /// updates (the bitmap/stale-flag invariant, DESIGN.md §12).
  /// `orig_ids` (non-null only for renumbered v2 files) translates the
  /// vertex id handed to Program::first_update back to the original id;
  /// storage indexing stays internal. `owners` gives this actor's slice
  /// (owner `id`); `values`, `latest_column` and `worklist` hold vertex v
  /// at index v - `base` (a cluster rank's storage covers its slice only).
  ComputerActor(std::uint32_t id, ValueFile& values, const Program& program,
                std::vector<std::uint8_t>& latest_column,
                MessageBatchPool& pool, const OwnerMap& owners,
                ActiveBitmap& worklist, const VertexId* orig_ids = nullptr,
                VertexId base = 0);

  void connect(ManagerActor* manager);

  /// First-message events (one value-slot write each, even for
  /// non-updates — the "negative value" copy).
  std::uint64_t touches_total() const { return apply_.touches_total(); }

  /// Wall time spent applying batches (the compute-side complement of
  /// DispatcherActor::busy_seconds for the message-plane bench).
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void on_message(ComputerMsg msg) override;

 private:
  /// Sends the manager kWorkerFailed for `superstep`.
  void report_failure(std::uint64_t superstep, const std::exception& e);

  const std::uint32_t id_;
  MessageBatchPool& pool_;
  SliceApply apply_;

  ManagerActor* manager_ = nullptr;
  double busy_seconds_ = 0.0;
};

}  // namespace gpsa
