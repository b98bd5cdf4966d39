#include "core/computer.hpp"

#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

ComputerActor::ComputerActor(std::uint32_t id, ValueFile& values,
                             const Program& program,
                             std::vector<std::uint8_t>& latest_column,
                             MessageBatchPool& pool, const OwnerMap& owners,
                             ActiveBitmap& worklist, const VertexId* orig_ids)
    : id_(id),
      values_(values),
      program_(program),
      latest_column_(latest_column),
      pool_(pool),
      worklist_(worklist),
      orig_ids_(orig_ids),
      sum_fold_(program.sum_fold()) {
  if (sum_fold_) {
    sums_.init(owners.range_begin(id), owners.local_size(id));
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
        if (sum_fold_) {
          for (const VertexMessage& m : msg.batch) {
            sums_.add(m.dst, m.value,
                      [&] { return first_sum_touch(m.dst, update_col); });
          }
        } else {
          for (const VertexMessage& m : msg.batch) {
            apply(m, update_col);
          }
        }
        // Drained: the leased buffer re-enters circulation for the next
        // dispatcher flush (the zero-allocation loop).
        pool_.recycle(std::move(msg.batch));
      } catch (const std::exception& e) {
        // A user compute/first_update hook threw, or a sum left the exact
        // fold's range: report instead of wedging the superstep barrier
        // (§V.C exception handling).
        report_failure(msg.superstep, e);
      }
      break;
    case ComputerMsg::Kind::kComputeOver: {
      try {
        // Every batch of the superstep is applied (they precede this
        // message in the mailbox); publish the exact sums before the ack.
        const ScopedAccumulator busy(busy_seconds_);
        store_sums(ValueFile::update_column(msg.superstep));
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
        break;
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

void ComputerActor::report_failure(std::uint64_t superstep,
                                   const std::exception& e) {
  ManagerMsg failed;
  failed.kind = ManagerMsg::Kind::kWorkerFailed;
  failed.superstep = superstep;
  failed.worker_id = id_;
  failed.error = std::string("computer: ") + e.what();
  manager_->send(std::move(failed));
}

void ComputerActor::apply(const VertexMessage& message,
                          unsigned update_col) {
  const VertexId v = message.dst;
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

  // First message of this superstep for v (the update column was
  // invalidated when it was last dispatched): seed the accumulator from
  // the freshest stored payload (Algorithm 3 line 9).
  const Payload base = first_touch(v, update_col);
  const Payload acc = program_.compute(
      program_.first_update(orig_ids_ == nullptr ? v : orig_ids_[v], base),
      message.value);
  if (program_.changed(base, acc)) {
    store_update(v, update_col, acc);
    // Activation publishes to the bitmap in lock-step with the stale
    // flag: this and store_sums are the only stores that clear the flag
    // in a freshly-invalidated column, so "bit set in generation g" <=>
    // "column g's flag clear" — worklist dispatch reads exactly the
    // stale-flag active set.
    worklist_.set(v, update_col);
  } else {
    // Even a non-update writes the copied payload ("a negative value will
    // be written"), so this column now holds v's freshest value.
    values_.store(v, update_col, make_slot(base, /*stale=*/true));
  }
}

Payload ComputerActor::first_touch(VertexId v, unsigned update_col) {
  const Payload base = slot_payload(values_.load(v, latest_column_[v]));
  latest_column_[v] = static_cast<std::uint8_t>(update_col);
  ++touches_total_;
  return base;
}

Payload ComputerActor::first_sum_touch(VertexId v, unsigned update_col) {
  const Payload base = first_touch(v, update_col);
  // The "negative value" copy: the column holds v's freshest value, still
  // stale, until store_sums decides activation on the whole sum.
  values_.store(v, update_col, make_slot(base, /*stale=*/true));
  return program_.first_update(orig_ids_ == nullptr ? v : orig_ids_[v],
                               base);
}

void ComputerActor::store_update(VertexId v, unsigned update_col,
                                 Payload value) {
  values_.store(v, update_col, make_slot(value, /*stale=*/false));
  ++updates_this_superstep_;
}

void ComputerActor::store_sums(unsigned update_col) {
  AscendingBitSetter activate(worklist_, update_col);
  sums_.finish([&](VertexId v, Payload value) {
    // The update column holds v's pre-superstep value (first_sum_touch).
    if (program_.changed(slot_payload(values_.load(v, update_col)), value)) {
      store_update(v, update_col, value);
      activate.set(v);
    }
  });
  activate.flush();
}

}  // namespace gpsa
