#include "core/manager.hpp"

#include "core/computer.hpp"
#include "core/dispatcher.hpp"
#include "core/peer_links.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace gpsa {

ManagerActor::ManagerActor(ValueFile& values, std::uint64_t max_supersteps,
                           std::uint64_t checkpoint_interval,
                           bool terminate_on_zero_updates,
                           MessageBatchPool* pool,
                           const std::atomic<bool>* cancel,
                           std::atomic<std::uint64_t>* progress,
                           PeerLinks* peers)
    : values_(values),
      max_supersteps_(max_supersteps),
      checkpoint_interval_(checkpoint_interval),
      terminate_on_zero_updates_(terminate_on_zero_updates),
      pool_(pool),
      cancel_(cancel),
      progress_(progress),
      peers_(peers) {}

void ManagerActor::connect(std::vector<DispatcherActor*> dispatchers,
                           std::vector<ComputerActor*> computers) {
  GPSA_CHECK(!dispatchers.empty() && !computers.empty());
  dispatchers_ = std::move(dispatchers);
  computers_ = std::move(computers);
}

void ManagerActor::on_message(ManagerMsg msg) {
  if (finished_) {
    return;  // stray acks after SYSTEM_OVER are harmless
  }
  switch (msg.kind) {
    case ManagerMsg::Kind::kStartRun:
      superstep_ = values_.completed_supersteps();  // 0, or resume point
      if (max_supersteps_ == 0) {
        finish_run(/*converged=*/false);
        return;
      }
      start_superstep();
      break;

    case ManagerMsg::Kind::kDispatchOver:
      GPSA_CHECK(msg.superstep == superstep_);
      superstep_message_count_ += msg.count;
      superstep_active_count_ += msg.active;
      superstep_edges_count_ += msg.edges;
      if (++dispatch_acks_ == dispatchers_.size()) {
        if (peers_ != nullptr) {
          // Answered by kPeersOver once the peers' batches are in too.
          peers_->end_dispatch(superstep_, superstep_message_count_);
        } else {
          send_compute_over();
        }
      }
      break;

    case ManagerMsg::Kind::kPeersOver:
      GPSA_CHECK(peers_ != nullptr && msg.superstep == superstep_);
      // Halt and convergence go by the whole cluster's messages.
      superstep_message_count_ = msg.count;
      send_compute_over();
      // Only now may a faster peer's next-superstep batches follow.
      peers_->open(superstep_ + 1);
      break;

    case ManagerMsg::Kind::kComputeOver:
      GPSA_CHECK(msg.superstep == superstep_);
      superstep_update_count_ += msg.count;
      if (++compute_acks_ == computers_.size()) {
        finish_superstep();
      }
      break;

    case ManagerMsg::Kind::kWorkerFailed:
      // §V.C: the manager handles worker exceptions — abort the run and
      // surface the error instead of hanging the superstep protocol.
      GPSA_LOG(Error) << "manager: worker " << msg.worker_id
                      << " failed at superstep " << msg.superstep << ": "
                      << msg.error;
      result_.failed = true;
      result_.error = msg.error;
      finish_run(/*converged=*/false);
      break;
  }
}

void ManagerActor::start_superstep() {
  dispatch_acks_ = 0;
  compute_acks_ = 0;
  superstep_message_count_ = 0;
  superstep_update_count_ = 0;
  superstep_active_count_ = 0;
  superstep_edges_count_ = 0;
  superstep_timer_.reset();
  DispatcherMsg start;
  start.kind = DispatcherMsg::Kind::kIterationStart;
  start.superstep = superstep_;
  for (DispatcherActor* dispatcher : dispatchers_) {
    dispatcher->send(start);
  }
}

void ManagerActor::send_compute_over() {
  // Every dispatcher's batches are enqueued (before it reported), and so
  // are the peers' (kPeersOver): the COMPUTE_OVER token lands behind them.
  for (ComputerActor* computer : computers_) {
    ComputerMsg over;
    over.kind = ComputerMsg::Kind::kComputeOver;
    over.superstep = superstep_;
    computer->send(std::move(over));
  }
}

void ManagerActor::finish_superstep() {
  result_.superstep_seconds.push_back(superstep_timer_.elapsed_seconds());
  result_.superstep_messages.push_back(superstep_message_count_);
  result_.superstep_updates.push_back(superstep_update_count_);
  result_.superstep_active.push_back(superstep_active_count_);
  result_.superstep_edges.push_back(superstep_edges_count_);
  result_.total_messages += superstep_message_count_;
  result_.total_updates += superstep_update_count_;
  ++superstep_;
  result_.supersteps = result_.superstep_seconds.size();
  if (pool_ != nullptr) {
    pool_->mark_superstep();  // closes the pool's warm-up window
  }
  if (progress_ != nullptr) {
    progress_->fetch_add(1);
  }

  if (checkpoint_interval_ != 0) {
    // Write-back batching: flush every Nth superstep boundary instead of
    // all of them. Supersteps between checkpoints are re-run after a
    // crash (the columns are recomputed from the last durable counter),
    // which is safe for the same reason recovery itself is — superstep
    // replay is idempotent over the immutable column.
    const std::uint64_t completed = result_.superstep_seconds.size();
    if (completed % checkpoint_interval_ == 0) {
      values_.checkpoint(superstep_).expect_ok();
      checkpoint_pending_ = false;
    } else {
      checkpoint_pending_ = true;
    }
  }

  if (superstep_message_count_ == 0 ||
      (terminate_on_zero_updates_ && superstep_update_count_ == 0)) {
    finish_run(/*converged=*/true);
    return;
  }
  if (cancel_ != nullptr && cancel_->load()) {
    result_.cancelled = true;
    finish_run(/*converged=*/false);
    return;
  }
  const std::uint64_t executed = result_.superstep_seconds.size();
  if (executed >= max_supersteps_) {
    finish_run(/*converged=*/false);
    return;
  }
  start_superstep();
}

void ManagerActor::finish_run(bool converged) {
  finished_ = true;
  result_.converged = converged;
  if (checkpoint_pending_ && !result_.failed) {
    // Batched checkpointing still ends a clean run fully durable.
    values_.checkpoint(superstep_).expect_ok();
    checkpoint_pending_ = false;
  }
  DispatcherMsg dispatcher_over;
  dispatcher_over.kind = DispatcherMsg::Kind::kSystemOver;
  for (DispatcherActor* dispatcher : dispatchers_) {
    dispatcher->send(dispatcher_over);
  }
  for (ComputerActor* computer : computers_) {
    ComputerMsg over;
    over.kind = ComputerMsg::Kind::kSystemOver;
    computer->send(std::move(over));
  }
  GPSA_LOG(Debug) << "manager: run finished after "
                  << result_.superstep_seconds.size() << " supersteps, "
                  << result_.total_messages << " messages";
  promise_.set_value(result_);
}

}  // namespace gpsa
