// The per-node state and dispatch of a cluster rank (DESIGN.md §14): what
// run_rank (cluster_rank.hpp) runs on its own vertex slice, whichever
// entry point started it.
//
//   1. the node state itself (ClusterNodeState): the node's value file
//      (the two-column slot protocol), worklist bitmap and delta-dispatch
//      memory;
//   2. the dispatch loop (NodeDispatchCore): one worklist scan, so a
//      fixed vertex visit order and fixed batch boundaries.
//
// The apply is the engine's own kernel, SliceApply (core/slice_apply.hpp),
// over the node's file: its result does not depend on arrival order
// (min-style folds are order-free already, and sum-fold programs fold
// exactly, deciding activation from the whole superstep's sum). So
// batches apply as they arrive, in whatever order the links deliver them,
// and a cluster run is bit-identical to the single-machine engine and to
// itself: in one process over socketpairs or across processes over TCP,
// at any rank count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "graph/csr.hpp"
#include "io/io_backend.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/slot.hpp"
#include "storage/value_file.hpp"
#include "util/check.hpp"

namespace gpsa {

/// One node's vertex state: its slice of the graph's values in a value
/// file of its own, created through the plan's I/O backend with slots
/// indexed node-locally — the same two-column slot protocol as the
/// single-machine engine, each file covering exactly the node's slice as
/// it would on a real node. The node's SliceApply (run_rank) folds into
/// it; its NodeDispatchCore dispatches from it.
struct ClusterNodeState {
  VertexId begin = 0;
  VertexId end = 0;
  ValueFile values;
  /// Which column holds local vertex i's freshest payload.
  std::vector<std::uint8_t> latest;
  /// Node-local active bitmap over [0, end-begin). The node's apply
  /// publishes activations (local index, update column's generation); the
  /// node's dispatcher drains and clears. Activation state never crosses
  /// nodes — the message itself carries it.
  ActiveBitmap worklist;
  /// Delta programs: per-local-vertex value as of its last dispatch
  /// (written only by this node's dispatcher). Empty otherwise.
  std::vector<Payload> last_sent;

  /// Sets up the non-empty slice [begin_vertex, end_vertex) in a value
  /// file created at `path` with the program's initial values; then seeds
  /// the worklist bits (generation 0 = superstep 0's dispatch column) and
  /// the delta memory, as the engine front-ends do.
  Status init(VertexId begin_vertex, VertexId end_vertex,
              const Program& program, VertexId num_vertices,
              IoBackend& backend, const std::string& path) {
    begin = begin_vertex;
    end = end_vertex;
    const VertexId size = end - begin;
    GPSA_ASSIGN_OR_RETURN(
        values, backend.create_value_file(path, size, program.name()));
    latest.assign(size, 0);
    worklist = ActiveBitmap(size);
    if (program.delta_messages()) {
      last_sent.assign(size, Payload{0});
    }
    for (VertexId i = 0; i < size; ++i) {
      const Program::InitialState st = program.init(begin + i, num_vertices);
      values.store(i, 0, make_slot(st.value, !st.active));
      values.store(i, 1, make_slot(st.value, true));
      if (st.active) {
        worklist.set(i, 0);
      }
    }
    return Status::ok();
  }
};

/// The dispatch half of a node's superstep, parameterized over how a
/// flushed batch travels. Visit order (worklist bits ascending), batch
/// boundaries, and sequence numbering are fixed here, so every run
/// flushes byte-identical batches in the same order.
class NodeDispatchCore {
 public:
  /// `flush(dst_node, seq, batch)`: takes ownership of a leased buffer.
  using FlushFn =
      std::function<void(unsigned, std::uint32_t, std::vector<VertexMessage>&&)>;

  NodeDispatchCore(ClusterNodeState& state, const Csr& graph,
                   const Program& program, const OwnerMap& owners,
                   MessageBatchPool& pool, std::size_t batch_size)
      : state_(state),
        graph_(graph),
        program_(program),
        owners_(owners),
        pool_(pool),
        batch_size_(batch_size) {
    // One-time setup of the empty per-node staging slots; the element
    // buffers circulate through the pool.
    staging_.resize(owners.parts());  // gpsa-lint: allow(msg-buffer-alloc)
    seq_.resize(staging_.size());
    for (auto& buffer : staging_) {
      buffer = pool_.lease();  // gpsa-analyze: transfer(staging slot; shipped by flush, recycled by the peer's apply)
    }
  }

  void run_iteration(std::uint64_t superstep, const FlushFn& flush) {
    std::fill(seq_.begin(), seq_.end(), 0u);
    const unsigned dispatch_col = ValueFile::dispatch_column(superstep);
    // Only the set bits of the dispatch generation, O(active).
    ActiveBitmap& wl = state_.worklist;
    const VertexId local_size = state_.end - state_.begin;
    if (local_size > 0) {
      const std::size_t last = ActiveBitmap::word_index(local_size - 1);
      for (std::size_t w = 0; w <= last; ++w) {
        BitmapWord bits = wl.word(dispatch_col, w) &
                          ActiveBitmap::range_mask(w, 0, local_size);
        while (bits != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          const VertexId i = static_cast<VertexId>(w) * kBitmapWordBits + bit;
          const Slot slot = state_.values.load(i, dispatch_col);
          GPSA_DCHECK(!slot_is_stale(slot));
          dispatch_vertex(state_.begin + i, slot_payload(slot), flush);
          state_.values.consume(i, dispatch_col);
        }
      }
      wl.clear_range(dispatch_col, 0, local_size);
    }
    for (std::size_t node = 0; node < staging_.size(); ++node) {
      flush_one(node, flush);
    }
  }

 private:
  void dispatch_vertex(VertexId v, Payload value, const FlushFn& flush) {
    if (!state_.last_sent.empty()) {
      // Delta program: hand gen_msg the change since v's last dispatch,
      // not the absolute value (this core is the plane's single writer).
      const Payload current = value;
      value = program_.delta(current, state_.last_sent[v - state_.begin]);
      state_.last_sent[v - state_.begin] = current;
    }
    const auto degree = static_cast<std::uint32_t>(graph_.out_degree(v));
    for (VertexId dst : graph_.neighbors(v)) {
      const Payload message = program_.gen_msg(v, dst, value, degree);
      const unsigned owner = owners_.owner_of(dst);
      staging_[owner].push_back(VertexMessage{dst, message});
      if (staging_[owner].size() >= batch_size_) {
        flush_one(owner, flush);
      }
    }
  }

  void flush_one(std::size_t node, const FlushFn& flush) {
    auto& buffer = staging_[node];
    if (buffer.empty()) {
      return;
    }
    const std::uint32_t seq = seq_[node]++;
    std::vector<VertexMessage> out = std::move(buffer);
    buffer = pool_.lease();
    flush(static_cast<unsigned>(node), seq, std::move(out));
  }

  ClusterNodeState& state_;
  const Csr& graph_;
  const Program& program_;
  const OwnerMap& owners_;
  MessageBatchPool& pool_;
  const std::size_t batch_size_;
  std::vector<std::vector<VertexMessage>> staging_;
  std::vector<std::uint32_t> seq_;  // per-destination, reset each superstep
};

}  // namespace gpsa
