// Cooperative actor scheduler.
//
// The paper's engine replaces threads with "active light-weight actors"
// (Kilim tasks). Here, an actor is a Schedulable multiplexed onto a small
// pool of worker threads: it is enqueued whenever its mailbox transitions
// from empty to non-empty, a worker pops it and lets it process a bounded
// batch of messages, and it is re-enqueued if work remains. The batch
// bound keeps any one actor from monopolizing a worker.
//
// Run queues (DESIGN.md §8): per-worker bounded Chase–Lev deques
// (work_stealing_deque.hpp). An enqueue from a worker thread lands on
// that worker's own deque (local LIFO); external submissions and deque
// overflow go through a global injector queue; idle workers steal the
// FIFO end of random victims, taking up to half of the victim's backlog
// per episode. A parked-worker bitmap plus a global pending-unit counter
// lets enqueue wake at most one sleeper and makes "sleep while work is
// unclaimed" impossible (Dekker on seq_cst pending/parked accesses). A
// fairness tick services the injector and the worker's own FIFO end
// every 61 slices so local LIFO churn cannot starve anyone.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "actor/work_stealing_deque.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

/// A unit the scheduler can run. Implemented by Actor<M>.
class Schedulable {
 public:
  virtual ~Schedulable() = default;

  /// Processes up to `max_messages` queued messages.
  /// Returns true if the unit still has (or may have) pending work and must
  /// be re-enqueued; false if it went idle.
  virtual bool execute_batch(std::size_t max_messages) = 0;

  /// Job namespace this unit belongs to (ActorSystem::spawn_in_job). Tag 0
  /// is the default single-job namespace. Set once, before the first
  /// enqueue; read by workers for the per-job fair-share budget and by
  /// ActorSystem::despawn_job to collect a job's actors.
  void set_job_tag(std::uint32_t tag) { job_tag_ = tag; }
  std::uint32_t job_tag() const { return job_tag_; }

  /// True when the unit is neither mid-slice nor claimed by / queued on
  /// any run queue. Actor<M> refines idle_hint() with its mailbox state
  /// machine: IDLE there means "not enqueued anywhere and mailbox seen
  /// empty", and the in-flight count covers the pop-to-state-reset window.
  bool quiescent() const {
    return slices_in_flight_.load(std::memory_order_seq_cst) == 0 &&
           idle_hint();
  }

  /// Slices this unit has fully completed. The despawn protocol
  /// (ActorSystem::despawn_job) reads this before and after a quiescent()
  /// sweep: slice_end() bumps the counter BEFORE dropping the in-flight
  /// count, so an unchanged counter across a window in which every unit
  /// read quiescent means no slice ran anywhere in that window.
  std::uint64_t slices_completed() const {
    return slices_completed_.load(std::memory_order_seq_cst);
  }

 protected:
  /// Subclass's view of "no pending work and not on a run queue".
  virtual bool idle_hint() const { return true; }

 private:
  friend class Scheduler;

  // A count, not a flag: two slices of one unit can overlap. Once a slice
  // stores IDLE, a producer may re-enqueue the unit and a second worker
  // may start the next slice before the first worker reaches slice_end().
  // A flag cleared by that first slice_end() would let quiescent() read
  // true while the second slice still runs.
  void slice_begin() {
    slices_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  }
  void slice_end() {
    // Counter first, then the in-flight count: a reader that sees no slice
    // in flight with an unchanged counter knows this slice's writes are
    // visible.
    slices_completed_.fetch_add(1, std::memory_order_seq_cst);
    slices_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
  }

  std::uint32_t job_tag_ = 0;
  std::atomic<std::uint32_t> slices_in_flight_{0};
  std::atomic<std::uint64_t> slices_completed_{0};
};

class Scheduler {
 public:
  /// `worker_count` threads are started immediately.
  /// `batch_size` bounds messages processed per scheduling slice.
  explicit Scheduler(unsigned worker_count, std::size_t batch_size = 256);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Makes `unit` runnable. Callable from any thread, including workers.
  /// From a worker thread of this scheduler the unit lands on that
  /// worker's local deque; otherwise it goes through the injector.
  void enqueue(Schedulable* unit) GPSA_EXCLUDES(injector_mutex_);

  /// Stops accepting work, drains nothing, joins workers. Callers must
  /// quiesce their actors first (the GPSA manager protocol guarantees all
  /// mailboxes are empty before the engine stops the scheduler).
  void stop();

  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Total scheduling slices executed.
  std::uint64_t slices_executed() const {
    return slices_.load(std::memory_order_relaxed);
  }

  /// Steal episodes that obtained at least one unit.
  std::uint64_t steals_executed() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Extra units migrated beyond the first steal of each episode
  /// (batch-aware steal sizing: zero when every victim stayed shallow).
  std::uint64_t steal_extras_migrated() const {
    return steal_extras_.load(std::memory_order_relaxed);
  }

  /// Per-job fair-share budget, in slices. When nonzero, a worker that
  /// has run `slices` consecutive slices of the same job tag services the
  /// FIFO ends (injector, then its own deque's far end) before its local
  /// LIFO end — the 61-slice fairness tick generalized so a resident job
  /// cannot monopolize a worker between ticks. 0 (the default) disables
  /// the per-job trigger; single-job engine runs keep the plain fairness
  /// tick. Settable at any time (GraphService sets 61 once at startup).
  void set_fair_share_budget(std::uint64_t slices) {
    fair_budget_.store(slices, std::memory_order_relaxed);
  }

 private:
  /// Per-worker scheduling state. Only `deque` and `epoch` are shared;
  /// `tick` and `rng_state` are owner-private.
  struct alignas(64) Worker {
    explicit Worker(std::uint64_t seed) : rng_state(seed) {}

    WorkStealingDeque<Schedulable*> deque{/*initial_capacity=*/64};
    /// Eventcount the worker parks on; bumped to wake it.
    std::atomic<std::uint32_t> epoch{0};
    std::uint64_t tick = 0;
    std::uint64_t rng_state;
    /// Job tag of the last slice this worker ran and the consecutive
    /// same-job run length (per-job fair-share budget; owner-private).
    std::uint32_t last_job_tag = 0;
    std::uint64_t job_run_len = 0;
  };

  void worker_loop(unsigned index);

  Schedulable* next_unit(Worker& self, unsigned index);
  Schedulable* try_steal(Worker& self, unsigned index);
  Schedulable* pop_injector() GPSA_EXCLUDES(injector_mutex_);
  void inject(Schedulable* unit) GPSA_EXCLUDES(injector_mutex_);
  void wake_one();
  /// Parks until woken. Returns false when the scheduler is stopping.
  bool park(Worker& self, unsigned index);

  const std::size_t batch_size_;
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_extras_{0};
  std::atomic<std::uint64_t> fair_budget_{0};

  std::vector<std::unique_ptr<Worker>> worker_state_;
  Mutex injector_mutex_{"Scheduler.injector"};
  std::deque<Schedulable*> injector_ GPSA_GUARDED_BY(injector_mutex_);
  /// Mirror of injector_.size() readable without the lock.
  std::atomic<std::size_t> injector_size_{0};
  /// Units enqueued but not yet claimed by a worker. A worker only sleeps
  /// after publishing its parked bit and re-reading pending_ == 0.
  std::atomic<std::int64_t> pending_{0};
  /// One bit per worker, set while that worker is parked.
  std::unique_ptr<std::atomic<std::uint64_t>[]> parked_words_;
  std::size_t parked_word_count_ = 0;
  std::atomic<bool> stop_flag_{false};

  std::vector<std::thread> workers_;
};

}  // namespace gpsa
