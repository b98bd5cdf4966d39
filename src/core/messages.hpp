// Actor message/command vocabulary (paper §V, Algorithms 1-3).
//
// The paper's command set maps onto three mailbox message types:
//   dispatcher <- ITERATION_START / SYSTEM_OVER         (DispatcherMsg)
//   computer   <- message batches / COMPUTE_OVER / SYSTEM_OVER (ComputerMsg)
//   manager    <- DISPATCH_OVER / COMPUTE_OVER acks, and on a cluster
//                 rank its peer links' PEERS_OVER         (ManagerMsg)
//
// Vertex messages are batched: a dispatcher accumulates up to
// EngineOptions::message_batch VertexMessages per computing actor before
// enqueueing the vector as one mailbox message, so mailbox traffic is
// proportional to batches, not edges. On a cluster rank a sum-fold
// program's messages to a peer's slice cross the wire combined, one
// SumPartial per destination (DESIGN.md §14); the peer's links hand them
// to its computers as kSums pieces.
//
// Buffer ownership: ComputerMsg::batch usually carries a buffer *leased*
// from the engine's MessageBatchPool (core/message_pool.hpp). The
// receiving computer recycles it after applying; a message destroyed
// without being applied (teardown after SYSTEM_OVER) simply frees the
// vector — safe, because the pool outlives the actor system and never
// tracks outstanding leases.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "storage/slot.hpp"

namespace gpsa {

/// One vertex update in flight: "a message usually contains the
/// destination and value" (§IV.B).
struct VertexMessage {
  // The user-provided default constructor deliberately leaves the members
  // uninitialized: the radix scatter (dispatcher.cpp) resizes a leased
  // buffer and then overwrites every element, and a defaulted constructor
  // would make that resize memset the whole batch first.
  VertexMessage() {}  // NOLINT(modernize-use-equals-default)
  VertexMessage(VertexId d, Payload v) : dst(d), value(v) {}
  VertexId dst;
  Payload value;
};

/// A dispatcher's exact partial sum of the sum-fold messages it generated
/// for one remote destination in one superstep: fixed_add over their
/// payload_to_fixed terms (core/program.hpp), so it is below 2^63.
struct SumPartial {
  VertexId dst = 0;
  std::uint64_t sum = 0;
};

struct DispatcherMsg {
  enum class Kind : std::uint8_t { kIterationStart, kSystemOver };
  Kind kind = Kind::kIterationStart;
  std::uint64_t superstep = 0;
};

struct ComputerMsg {
  enum class Kind : std::uint8_t { kBatch, kSums, kComputeOver, kSystemOver };
  Kind kind = Kind::kBatch;
  std::uint64_t superstep = 0;
  std::vector<VertexMessage> batch;  // kBatch only
  std::vector<SumPartial> sums;      // kSums only: a peer's partials
};

struct ManagerMsg {
  enum class Kind : std::uint8_t {
    kStartRun,      // from the engine front-end
    kDispatchOver,  // from a dispatcher; count = messages it sent
    kComputeOver,   // ack from a computer; count = vertices it updated
    kPeersOver,     // from the peer links: every peer's traffic for the
                    // superstep is in; count = the cluster's messages
    kWorkerFailed,  // a worker's user hook threw (§V.C: the manager
                    // "handles exceptions" and aborts the run cleanly)
  };
  Kind kind = Kind::kStartRun;
  std::uint64_t superstep = 0;
  std::uint32_t worker_id = 0;
  std::uint64_t count = 0;
  /// kDispatchOver only: vertices this dispatcher actually dispatched.
  std::uint64_t active = 0;
  /// kDispatchOver only: CSR entries the dispatcher examined — streamed
  /// record entries plus one per vertex check (the work-done metric
  /// RunResult surfaces per superstep).
  std::uint64_t edges = 0;
  std::string error;  // kWorkerFailed only
};

}  // namespace gpsa
