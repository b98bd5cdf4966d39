// Pooled VertexMessage batch buffers (the zero-allocation message plane).
//
// The dispatch hot path used to pay one heap allocation per flushed batch:
// flush_batch moved the staging vector into the mailbox message and
// reserve()d a fresh one, and the drained vector was freed when the
// computing actor destroyed the message. GraphHP and the Ammar-Özsu
// systems analysis (PAPERS.md) both put per-message allocator traffic
// among the dominant BSP message-plane costs once I/O is pipelined.
//
// This pool closes the loop: dispatchers *lease* an empty buffer with the
// batch capacity already reserved, and computing actors *recycle* the
// drained buffer after applying it. The pool allocates only when more
// batches are in flight at once than ever before, so the buffer count
// tracks the peak in-flight batch count; no buffer is dropped, and at
// job end every buffer the pool allocated is back on its free list
// (MessagePoolStats: free_buffers == misses).
//
// Concurrency: lease() runs on dispatcher actors, recycle() on computing
// actors, mark_superstep() on the manager — all scheduler workers. One
// annotated Mutex guards the free list; the critical sections are a
// vector move plus counter bumps, two orders of magnitude cheaper than
// the malloc/free pair they replace (and off the per-message path
// entirely: one lease+recycle per EngineOptions::message_batch messages).
//
// Lifetime: the engine owns the pool and keeps it alive until after
// ActorSystem::shutdown(), so buffers still sitting in mailboxes at
// SYSTEM_OVER are simply destroyed with their messages (a leased buffer
// is an ordinary std::vector — dropping it instead of recycling is safe,
// it is only a pool miss waiting to happen in a run that has already
// ended).
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

// --- Lease→wire hooks (DESIGN.md §14) -----------------------------------
//
// A leased batch buffer is already the wire representation of a BATCH
// frame payload: contiguous {dst u32, value u32} pairs with no padding.
// These asserts are what make the transport's reinterpret-cast view and
// memcpy decode sound — if the message layout ever changes, the wire
// format breaks here at compile time instead of on a cluster.
static_assert(std::is_trivially_copyable_v<VertexMessage>,
              "VertexMessage must serialize by memcpy");
static_assert(sizeof(VertexMessage) == 8 && sizeof(VertexId) == 4 &&
                  sizeof(Payload) == 4,
              "wire BATCH payloads are packed {dst u32, value u32} pairs");
static_assert(std::endian::native == std::endian::little,
              "the wire format writes VertexMessage arrays as host bytes "
              "and declares them little-endian");

/// Raw-byte view of a leased batch for zero-copy serialization.
inline std::pair<const std::uint8_t*, std::size_t> batch_wire_view(
    const std::vector<VertexMessage>& batch) {
  return {reinterpret_cast<const std::uint8_t*>(batch.data()),
          batch.size() * sizeof(VertexMessage)};
}

/// Pool activity surfaced in RunResult.
struct MessagePoolStats {
  /// Always true: every run pools its batch buffers.
  bool enabled = true;
  std::uint64_t leases = 0;
  /// Leases served from the free list (no allocation).
  std::uint64_t hits = 0;
  /// Leases that had to allocate a fresh buffer.
  std::uint64_t misses = 0;
  /// Misses after the first two supersteps. Not a leak count: with more
  /// than one worker the peak number of batches in flight can still rise
  /// after superstep 2 under a different schedule, and each new peak
  /// allocates once. free_buffers == misses at job end is the no-drop
  /// guarantee.
  std::uint64_t steady_misses = 0;
  /// Capacity returned through recycle(), in bytes.
  std::uint64_t recycled_bytes = 0;
  /// Buffers on the free list when the stats were taken.
  std::uint64_t free_buffers = 0;
};

class MessageBatchPool {
 public:
  /// `batch_capacity`: capacity every leased buffer is reserved to
  /// (EngineOptions::message_batch).
  explicit MessageBatchPool(std::size_t batch_capacity);

  MessageBatchPool(const MessageBatchPool&) = delete;
  MessageBatchPool& operator=(const MessageBatchPool&) = delete;

  /// An empty buffer with at least batch_capacity reserved.
  std::vector<VertexMessage> lease() GPSA_EXCLUDES(mutex_);

  /// Return a drained buffer; its capacity re-enters circulation.
  void recycle(std::vector<VertexMessage>&& buffer) GPSA_EXCLUDES(mutex_);

  /// Superstep boundary (called by the manager): after two of these
  /// further misses also count as steady_misses.
  void mark_superstep() GPSA_EXCLUDES(mutex_);

  MessagePoolStats stats() const GPSA_EXCLUDES(mutex_);

 private:
  const std::size_t batch_capacity_;

  mutable Mutex mutex_{"MessagePool.free"};
  std::vector<std::vector<VertexMessage>> free_ GPSA_GUARDED_BY(mutex_);
  std::uint64_t leases_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t steady_misses_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t recycled_bytes_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t supersteps_marked_ GPSA_GUARDED_BY(mutex_) = 0;
};

}  // namespace gpsa
