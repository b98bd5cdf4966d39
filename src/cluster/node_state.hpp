// The per-node compute core of a cluster rank (DESIGN.md §14): what
// run_rank (cluster_rank.hpp) runs on its own vertex slice, whichever
// entry point started it.
//
//   1. the node state itself (ClusterNodeState): the two-column slot
//      protocol, worklist bitmap, delta-dispatch memory and the exact
//      sum fold;
//   2. the dispatch loop (NodeDispatchCore): one worklist scan, so a
//      fixed vertex visit order and fixed batch boundaries;
//   3. an apply whose result does not depend on arrival order
//      (cluster_apply_batch): min-style folds are order-free already, and
//      sum-fold programs add every message to the node's SliceSumFold
//      (core/program.hpp) — an exact sum — whose rounded value
//      cluster_publish_sums stores once per superstep, deciding
//      activation from the whole sum.
//
// So batches apply as they arrive, in whatever order the links deliver
// them, and a cluster run is bit-identical to the single-machine engine
// and to itself: in one process over socketpairs or across processes
// over TCP, at any rank count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
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

/// One node's vertex state: the same two-column slot protocol as the
/// single-machine value file, held in node-local memory — or, when a
/// value-store directory is configured, in a real per-node value file
/// constructed through the I/O backend (slots indexed node-locally, so
/// each file covers exactly the node's slice as it would on a real node).
struct ClusterNodeState {
  VertexId begin = 0;
  VertexId end = 0;
  std::vector<Slot> columns[2];
  std::vector<std::uint8_t> latest;
  std::optional<ValueFile> file;
  /// Node-local active bitmap over [0, end-begin). The node's computer
  /// publishes activations (local index, update column's generation); the
  /// node's dispatcher drains and clears. Activation state never crosses
  /// nodes — the message itself carries it.
  ActiveBitmap worklist;
  /// Delta programs: per-local-vertex value as of its last dispatch
  /// (written only by this node's dispatcher). Empty otherwise.
  std::vector<Payload> last_sent;
  /// Sum-fold programs: the node's exact message sums (written only by
  /// the node's apply, published at the superstep's end).
  std::optional<SliceSumFold> sums;

  /// Sets up the slice [begin_vertex, end_vertex) with the program's
  /// initial values, in memory or, when `backend` is set, in a value file
  /// created at `path`; then seeds the worklist bits (generation 0 =
  /// superstep 0's dispatch column) and the delta memory, as the engine
  /// front-ends do.
  Status init(VertexId begin_vertex, VertexId end_vertex,
              const Program& program, VertexId num_vertices,
              IoBackend* backend, const std::string& path) {
    begin = begin_vertex;
    end = end_vertex;
    const VertexId size = end - begin;
    latest.assign(size, 0);
    worklist = ActiveBitmap(size);
    if (program.sum_fold()) {
      sums.emplace().init(begin, size);
    }
    if (program.delta_messages()) {
      last_sent.assign(size, Payload{0});
    }
    if (backend == nullptr) {
      columns[0].resize(size);
      columns[1].resize(size);
    } else if (size > 0) {  // an empty slice owns no file
      GPSA_ASSIGN_OR_RETURN(
          ValueFile f, backend->create_value_file(path, size, program.name()));
      file.emplace(std::move(f));
    }
    for (VertexId v = begin; v < end; ++v) {
      const Program::InitialState st = program.init(v, num_vertices);
      store(v, 0, make_slot(st.value, !st.active));
      store(v, 1, make_slot(st.value, true));
      if (st.active) {
        worklist.set(v - begin, 0);
      }
    }
    return Status::ok();
  }

  Slot load(VertexId v, unsigned column) const {
    if (file) {
      return file->load(v - begin, column);
    }
    return slot_load_relaxed(columns[column][v - begin]);
  }
  void store(VertexId v, unsigned column, Slot value) {
    if (file) {
      file->store(v - begin, column, value);
      return;
    }
    slot_store_relaxed(columns[column][v - begin], value);
  }
  Slot consume(VertexId v, unsigned column) {
    if (file) {
      return file->consume(v - begin, column);
    }
    return slot_consume_relaxed(columns[column][v - begin]);
  }
};

/// v's first message of the superstep: returns v's freshest stored
/// payload and makes the update column v's latest.
inline Payload cluster_first_touch(ClusterNodeState& state, VertexId v,
                                   unsigned update_col) {
  const Payload base =
      slot_payload(state.load(v, state.latest[v - state.begin]));
  state.latest[v - state.begin] = static_cast<std::uint8_t>(update_col);
  return base;
}

/// Applies one batch as it arrives, mirroring ComputerActor's apply. A sum-fold
/// program's messages only join the node's exact sums
/// (cluster_publish_sums decides them); any other program folds into the
/// update column. Returns the number of vertices updated.
inline std::uint64_t cluster_apply_batch(
    ClusterNodeState& state, const Program& program,
    const std::vector<VertexMessage>& batch, std::uint64_t superstep) {
  const unsigned update_col = ValueFile::update_column(superstep);
  if (state.sums.has_value()) {
    for (const VertexMessage& m : batch) {
      GPSA_DCHECK(m.dst >= state.begin && m.dst < state.end);
      state.sums->add(m.dst, m.value, [&] {
        const Payload base = cluster_first_touch(state, m.dst, update_col);
        // The "negative value" copy, stale until the publish decides.
        state.store(m.dst, update_col, make_slot(base, /*stale=*/true));
        return program.first_update(m.dst, base);
      });
    }
    return 0;
  }
  std::uint64_t updates = 0;
  for (const VertexMessage& m : batch) {
    const VertexId v = m.dst;
    GPSA_DCHECK(v >= state.begin && v < state.end);
    const Slot current = state.load(v, update_col);
    if (!slot_is_stale(current)) {
      const Payload seed = slot_payload(current);
      const Payload acc = program.compute(seed, m.value);
      if (acc != seed) {
        state.store(v, update_col, make_slot(acc, /*stale=*/false));
      }
      continue;
    }
    const Payload base = cluster_first_touch(state, v, update_col);
    const Payload acc =
        program.compute(program.first_update(v, base), m.value);
    if (program.changed(base, acc)) {
      // Slot and worklist bit together, as in ComputerActor::apply.
      state.store(v, update_col, make_slot(acc, /*stale=*/false));
      state.worklist.set(v - state.begin, update_col);
      ++updates;
    } else {
      state.store(v, update_col, make_slot(base, /*stale=*/true));
    }
  }
  return updates;
}

/// End of a superstep's apply, once every batch of it is applied:
/// activates every vertex whose rounded exact sum counts as changed
/// against its stored value. Returns the number of updated vertices (0
/// for programs without sum_fold()).
inline std::uint64_t cluster_publish_sums(ClusterNodeState& state,
                                          const Program& program,
                                          std::uint64_t superstep) {
  if (!state.sums.has_value()) {
    return 0;
  }
  const unsigned update_col = ValueFile::update_column(superstep);
  AscendingBitSetter activate(state.worklist, update_col);
  std::uint64_t updates = 0;
  state.sums->finish([&](VertexId v, Payload value) {
    if (program.changed(slot_payload(state.load(v, update_col)), value)) {
      state.store(v, update_col, make_slot(value, /*stale=*/false));
      activate.set(v - state.begin);
      ++updates;
    }
  });
  activate.flush();
  return updates;
}

/// The dispatch half of a node's superstep, parameterized over how a
/// flushed batch travels. Visit order (worklist bits ascending), batch
/// boundaries, and sequence numbering are fixed here, so every run
/// flushes byte-identical batches in the same order.
class NodeDispatchCore {
 public:
  /// `flush(dst_node, seq, batch)`: takes ownership of a leased buffer.
  using FlushFn =
      std::function<void(unsigned, std::uint32_t, std::vector<VertexMessage>&&)>;

  struct IterationStats {
    std::uint64_t messages = 0;        // all messages dispatched
    std::uint64_t remote_messages = 0; // crossed a node boundary
    std::uint64_t remote_batches = 0;
  };

  NodeDispatchCore(std::uint32_t node, ClusterNodeState& state,
                   const Csr& graph, const Program& program,
                   const OwnerMap& owners, MessageBatchPool& pool,
                   std::size_t batch_size)
      : node_(node),
        state_(state),
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

  IterationStats run_iteration(std::uint64_t superstep, const FlushFn& flush) {
    stats_ = IterationStats{};
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
          const VertexId v = state_.begin +
                             static_cast<VertexId>(w) * kBitmapWordBits + bit;
          const Slot slot = state_.load(v, dispatch_col);
          GPSA_DCHECK(!slot_is_stale(slot));
          dispatch_vertex(v, slot_payload(slot), flush);
          state_.consume(v, dispatch_col);
        }
      }
      wl.clear_range(dispatch_col, 0, local_size);
    }
    for (std::size_t node = 0; node < staging_.size(); ++node) {
      flush_one(node, flush);
    }
    return stats_;
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
      ++stats_.messages;
      if (owner != node_) {
        ++stats_.remote_messages;
      }
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
    if (node != node_) {
      ++stats_.remote_batches;
    }
    const std::uint32_t seq = seq_[node]++;
    std::vector<VertexMessage> out = std::move(buffer);
    buffer = pool_.lease();
    flush(static_cast<unsigned>(node), seq, std::move(out));
  }

  const std::uint32_t node_;
  ClusterNodeState& state_;
  const Csr& graph_;
  const Program& program_;
  const OwnerMap& owners_;
  MessageBatchPool& pool_;
  const std::size_t batch_size_;
  std::vector<std::vector<VertexMessage>> staging_;
  std::vector<std::uint32_t> seq_;  // per-destination, reset each superstep
  IterationStats stats_;
};

}  // namespace gpsa
