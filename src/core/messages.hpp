// Actor message/command vocabulary (paper §V, Algorithms 1-3).
//
// The paper's command set maps onto three mailbox message types:
//   dispatcher <- ITERATION_START / SYSTEM_OVER         (DispatcherMsg)
//   computer   <- message batches / COMPUTE_OVER / SYSTEM_OVER (ComputerMsg)
//   manager    <- DISPATCH_OVER / COMPUTE_OVER acks     (ManagerMsg)
//
// Vertex messages are batched: a dispatcher accumulates up to
// EngineOptions::message_batch VertexMessages per computing actor before
// enqueueing the vector as one mailbox message, so mailbox traffic is
// proportional to batches, not edges.
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

struct DispatcherMsg {
  enum class Kind : std::uint8_t { kIterationStart, kSystemOver };
  Kind kind = Kind::kIterationStart;
  std::uint64_t superstep = 0;
};

struct ComputerMsg {
  enum class Kind : std::uint8_t { kBatch, kComputeOver, kSystemOver };
  Kind kind = Kind::kBatch;
  std::uint64_t superstep = 0;
  std::vector<VertexMessage> batch;  // kBatch only
};

struct ManagerMsg {
  enum class Kind : std::uint8_t {
    kStartRun,      // from the engine front-end
    kDispatchOver,  // from a dispatcher; count = messages it sent
    kComputeOver,   // ack from a computer; count = vertices it updated
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
