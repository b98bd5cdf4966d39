#include "core/computer.hpp"

#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

ComputerActor::ComputerActor(std::uint32_t id, ValueFile& values,
                             const Program& program,
                             std::vector<std::uint8_t>& latest_column,
                             MessageBatchPool& pool, const OwnerMap& owners,
                             ActiveBitmap& worklist, const VertexId* orig_ids,
                             VertexId base)
    : id_(id),
      pool_(pool),
      apply_(values, program, latest_column, worklist, orig_ids, base,
             owners.range_begin(id), owners.local_size(id)) {}

void ComputerActor::connect(ManagerActor* manager) {
  GPSA_CHECK(manager != nullptr);
  manager_ = manager;
}

void ComputerActor::on_message(ComputerMsg msg) {
  switch (msg.kind) {
    case ComputerMsg::Kind::kBatch:
      try {
        const ScopedAccumulator busy(busy_seconds_);
        apply_.apply(msg.batch, msg.superstep);
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
    case ComputerMsg::Kind::kSums:
      try {
        const ScopedAccumulator busy(busy_seconds_);
        apply_.apply_sums(msg.sums, msg.superstep);
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
      }
      break;
    case ComputerMsg::Kind::kComputeOver: {
      ManagerMsg ack;
      try {
        // Every batch of the superstep is applied (they precede this
        // message in the mailbox); publish the exact sums before the ack.
        const ScopedAccumulator busy(busy_seconds_);
        ack.count = apply_.finish(msg.superstep);
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
        break;
      }
      ack.kind = ManagerMsg::Kind::kComputeOver;
      ack.superstep = msg.superstep;
      ack.worker_id = id_;
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

}  // namespace gpsa
