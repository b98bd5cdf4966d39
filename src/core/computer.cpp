#include "core/computer.hpp"

#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

ComputerActor::ComputerActor(std::uint32_t id, ValueFile& values,
                             const Program& program,
                             std::vector<std::uint8_t>& latest_column,
                             MessageBatchPool& pool, const OwnerMap& owners,
                             ActiveBitmap* worklist, const VertexId* orig_ids)
    : id_(id),
      values_(values),
      program_(program),
      latest_column_(latest_column),
      pool_(pool),
      worklist_(worklist),
      orig_ids_(orig_ids),
      slice_begin_(owners.range_begin(id)) {
  if (program_.sum_fold()) {
    sums_.assign(owners.local_size(id), kNoSum);
    summed_.reserve(owners.local_size(id));
  }
}

void ComputerActor::connect(ManagerActor* manager) {
  GPSA_CHECK(manager != nullptr);
  manager_ = manager;
}

void ComputerActor::on_message(ComputerMsg msg) {
  switch (msg.kind) {
    case ComputerMsg::Kind::kBatch:
      try {
        const ScopedAccumulator busy(busy_seconds_);
        const unsigned update_col = ValueFile::update_column(msg.superstep);
        for (const VertexMessage& m : msg.batch) {
          apply(m, update_col);
        }
        // Drained: the leased buffer re-enters circulation for the next
        // dispatcher flush (the zero-allocation loop).
        pool_.recycle(std::move(msg.batch));
      } catch (const std::exception& e) {
        // A user compute/first_update hook threw, or a sum left the exact
        // fold's range: report instead of wedging the superstep barrier
        // (§V.C exception handling).
        ManagerMsg failed;
        failed.kind = ManagerMsg::Kind::kWorkerFailed;
        failed.superstep = msg.superstep;
        failed.worker_id = id_;
        failed.error = std::string("computer: ") + e.what();
        manager_->send(std::move(failed));
      }
      break;
    case ComputerMsg::Kind::kComputeOver: {
      {
        // Every batch of the superstep is applied (they precede this
        // message in the mailbox); publish the exact sums before the ack.
        const ScopedAccumulator busy(busy_seconds_);
        store_sums(ValueFile::update_column(msg.superstep));
      }
      ManagerMsg ack;
      ack.kind = ManagerMsg::Kind::kComputeOver;
      ack.superstep = msg.superstep;
      ack.worker_id = id_;
      ack.count = updates_this_superstep_;
      updates_total_ += updates_this_superstep_;
      updates_this_superstep_ = 0;
      manager_->send(ack);
      break;
    }
    case ComputerMsg::Kind::kSystemOver:
      break;
  }
}

void ComputerActor::apply(const VertexMessage& message,
                          unsigned update_col) {
  const VertexId v = message.dst;
  if (!sums_.empty()) {
    FixedSum& sum = sums_[v - slice_begin_];
    if (sum != kNoSum) {
      // Fold into v's running exact sum; the slot receives it at
      // COMPUTE_OVER (store_sums).
      sum = fixed_add(sum, payload_to_fixed(message.value));
      return;
    }
  } else {
    const Slot current = values_.load(v, update_col);
    if (!slot_is_stale(current)) {
      // Fold into the in-progress accumulator.
      const Payload seed = slot_payload(current);
      const Payload acc = program_.compute(seed, message.value);
      if (acc != seed) {
        values_.store(v, update_col, make_slot(acc, /*stale=*/false));
      }
      return;
    }
  }

  // First message of this superstep for v (the update column was
  // invalidated when it was last dispatched): seed the accumulator from
  // the freshest stored payload (Algorithm 3 line 9).
  const Payload base = slot_payload(values_.load(v, latest_column_[v]));
  // first_update sees the original id (identity unless renumbered).
  const Payload seed =
      program_.first_update(orig_ids_ == nullptr ? v : orig_ids_[v], base);
  FixedSum sum = kNoSum;
  Payload acc = 0;
  if (!sums_.empty()) {
    sum = fixed_add(payload_to_fixed(seed), payload_to_fixed(message.value));
    acc = fixed_to_payload(sum);
  } else {
    acc = program_.compute(seed, message.value);
  }
  const bool updated = program_.changed(base, acc);
  // Even a non-update writes the copied payload ("a negative value will
  // be written"), so this column now holds v's freshest value.
  values_.store(v, update_col, make_slot(updated ? acc : base, !updated));
  latest_column_[v] = static_cast<std::uint8_t>(update_col);
  ++touches_total_;
  if (updated) {
    ++updates_this_superstep_;
    // Activation publishes to the bitmap in lock-step with the stale
    // flag: this branch is the only store that clears the flag in a
    // freshly-invalidated column, so "bit set in generation g" <=>
    // "column g's flag clear" — worklist dispatch reads exactly the
    // sweep's active set.
    if (worklist_ != nullptr) {
      worklist_->set(v, update_col);
    }
    if (!sums_.empty()) {
      sums_[v - slice_begin_] = sum;
      summed_.push_back(v);
    }
  }
}

void ComputerActor::store_sums(unsigned update_col) {
  for (const VertexId v : summed_) {
    FixedSum& sum = sums_[v - slice_begin_];
    values_.store(v, update_col,
                  make_slot(fixed_to_payload(sum), /*stale=*/false));
    sum = kNoSum;
  }
  summed_.clear();
}

}  // namespace gpsa
