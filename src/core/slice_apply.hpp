// The apply kernel of the computing actors (paper §V.D, Algorithm 3): folds
// message batches into one vertex slice of a value file: a computer's
// slice of the engine's global file, or of a cluster rank's slice-sized
// one.
//
// The first message a vertex receives in a superstep seeds the accumulator
// from the vertex's freshest stored payload (see the latest-column note in
// value_file.hpp / engine.hpp) via Program::first_update; subsequent
// messages fold into the in-progress accumulator. An update clears the
// stale flag so next superstep's dispatch picks the vertex up; a first
// message that does *not* change the value still writes the copied
// payload with the flag set — the paper's "negative value" write —
// keeping the update column's payload fresh.
//
// Sum-fold programs (Program::sum_fold, PageRank) fold exactly: every
// message adds to its vertex's FixedSum in the slice's SliceSumFold. A
// vertex's first message copies its stored value into the update column
// as above, still stale, and seeds the sum; finish() rounds each sum once
// and only then decides activation with Program::changed against that
// copied value — storing the sum, clearing the flag, setting the worklist
// bit and counting the update. It walks the slice in ascending order, so
// its stores stream and its worklist bits go out one atomic OR per word.
// On a cluster rank a peer's messages arrive combined, one partial per
// destination (apply_partials): a sum-fold program's is an exact partial
// sum (SliceSumFold::add_partial), the same sum; any other program's is
// its messages' compute fold, applied as one message. compute is
// commutative and associative, so the fold, the activation and the
// update count are those of the messages applied one by one.
// Batches may arrive in any interleaving (several dispatchers and peer
// ranks at one computer); an exact sum erases it, and deciding activation
// on the whole sum erases it from PageRankDeltaProgram's epsilon gate
// too, so results are bit-identical at any shape, worker count and rank
// count. (Rounding after every message instead cost ~35% more apply
// time.)
//
// Activation publishes to the worklist bitmap in lock-step with the stale
// flag: the first-update branch of apply and finish() are the only stores
// that clear the flag in a freshly-invalidated column, so "bit set in
// generation g" <=> "column g's flag clear" — worklist dispatch reads
// exactly the stale-flag active set (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/program.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class SliceApply {
 public:
  /// Applies messages to the vertices [begin, begin + size). `values`,
  /// `latest_column` (which column holds a vertex's freshest payload) and
  /// `worklist` hold vertex v at index v - `base`: 0 for the engine's
  /// global value file, `begin` for a node-local one. `orig_ids` (non-null
  /// only for renumbered v2 files) translates the vertex id handed to
  /// Program::first_update back to the original id.
  SliceApply(ValueFile& values, const Program& program,
             std::vector<std::uint8_t>& latest_column, ActiveBitmap& worklist,
             const VertexId* orig_ids, VertexId base, VertexId begin,
             VertexId size)
      : values_(values),
        program_(program),
        latest_column_(latest_column),
        worklist_(worklist),
        orig_ids_(orig_ids),
        base_(base) {
    if (program.sum_fold()) {
      sums_.emplace().init(begin, size);
    }
  }

  /// Folds one batch of `superstep`'s messages, all addressed to the
  /// slice. Throws what a program hook throws, or std::overflow_error when
  /// a sum leaves the exact fold's range.
  void apply(const std::vector<VertexMessage>& batch,
             std::uint64_t superstep) {
    const unsigned update_col = ValueFile::update_column(superstep);
    if (sums_.has_value()) {
      for (const VertexMessage& m : batch) {
        sums_->add(m.dst, m.value,
                   [&] { return first_sum_touch(m.dst, update_col); });
      }
      return;
    }
    for (const VertexMessage& m : batch) {
      apply_one(m.dst, m.value, update_col);
    }
  }

  /// Folds a peer rank's partials of `superstep`'s messages, all addressed
  /// to the slice. Throws std::overflow_error when a sum leaves the exact
  /// fold's range, and std::out_of_range when a non-sum partial is not a
  /// payload.
  void apply_partials(const std::vector<Partial>& partials,
                      std::uint64_t superstep) {
    const unsigned update_col = ValueFile::update_column(superstep);
    if (sums_.has_value()) {
      for (const Partial& p : partials) {
        sums_->add_partial(p.dst, p.value,
                           [&] { return first_sum_touch(p.dst, update_col); });
      }
      return;
    }
    for (const Partial& p : partials) {
      if (p.value > kPayloadMask) {
        throw std::out_of_range("partial for vertex " +
                                std::to_string(p.dst) +
                                " is not a payload: " +
                                std::to_string(p.value));
      }
      apply_one(p.dst, static_cast<Payload>(p.value), update_col);
    }
  }

  /// Ends `superstep`'s apply, once every batch of it is applied: publishes
  /// the exact sums (sum-fold programs) and returns the number of vertices
  /// the superstep updated.
  std::uint64_t finish(std::uint64_t superstep) {
    if (sums_.has_value()) {
      const unsigned update_col = ValueFile::update_column(superstep);
      AscendingBitSetter activate(worklist_, update_col);
      sums_->finish([&](VertexId v, Payload value) {
        // The update column holds v's pre-superstep value
        // (first_sum_touch).
        const Slot stored = values_.load(v - base_, update_col);
        if (program_.changed(slot_payload(stored), value)) {
          store_update(v, update_col, value);
          activate.set(v - base_);
        }
      });
      activate.flush();
    }
    const std::uint64_t updates = updates_;
    updates_ = 0;
    return updates;
  }

  /// First-message events (one value-slot write each, even for
  /// non-updates — the "negative value" copy).
  std::uint64_t touches_total() const { return touches_total_; }

 private:
  void apply_one(VertexId v, Payload message, unsigned update_col) {
    const Slot current = values_.load(v - base_, update_col);
    if (!slot_is_stale(current)) {
      // Fold into the in-progress accumulator.
      const Payload seed = slot_payload(current);
      const Payload acc = program_.compute(seed, message);
      if (acc != seed) {
        values_.store(v - base_, update_col, make_slot(acc, /*stale=*/false));
      }
      return;
    }
    // First message of this superstep for v (the update column was
    // invalidated when it was last dispatched): seed the accumulator from
    // the freshest stored payload (Algorithm 3 line 9).
    const Payload base = first_touch(v, update_col);
    const Payload acc = program_.compute(seed_of(v, base), message);
    if (program_.changed(base, acc)) {
      store_update(v, update_col, acc);
      worklist_.set(v - base_, update_col);
    } else {
      // Even a non-update writes the copied payload ("a negative value
      // will be written"), so this column now holds v's freshest value.
      values_.store(v - base_, update_col, make_slot(base, /*stale=*/true));
    }
  }

  /// v's first message of the superstep: returns v's freshest stored
  /// payload and makes the update column v's latest.
  Payload first_touch(VertexId v, unsigned update_col) {
    std::uint8_t& latest = latest_column_[v - base_];
    const Payload base = slot_payload(values_.load(v - base_, latest));
    latest = static_cast<std::uint8_t>(update_col);
    ++touches_total_;
    return base;
  }

  /// first_touch for a sum-fold program: also copies the payload into the
  /// update column, still stale, until finish() decides activation on the
  /// whole sum; returns first_update's seed.
  Payload first_sum_touch(VertexId v, unsigned update_col) {
    const Payload base = first_touch(v, update_col);
    values_.store(v - base_, update_col, make_slot(base, /*stale=*/true));
    return seed_of(v, base);
  }

  Payload seed_of(VertexId v, Payload base) const {
    return program_.first_update(orig_ids_ == nullptr ? v : orig_ids_[v],
                                 base);
  }

  /// Stores `value` as v's update (stale flag clear) and counts it; the
  /// caller sets v's worklist bit.
  void store_update(VertexId v, unsigned update_col, Payload value) {
    values_.store(v - base_, update_col, make_slot(value, /*stale=*/false));
    ++updates_;
  }

  ValueFile& values_;
  const Program& program_;
  /// Shared with the slice's other writers only by index: entry v - base
  /// is only ever written by this slice's apply.
  std::vector<std::uint8_t>& latest_column_;
  ActiveBitmap& worklist_;
  /// Renumbered files' internal -> original id map; nullptr = identity.
  const VertexId* const orig_ids_;
  const VertexId base_;
  /// Sum-fold programs' exact message sums over the slice.
  std::optional<SliceSumFold> sums_;
  std::uint64_t updates_ = 0;
  std::uint64_t touches_total_ = 0;
};

}  // namespace gpsa
