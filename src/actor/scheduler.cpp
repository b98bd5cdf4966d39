// gpsa-lint: locked-notify — every condition-variable notify in this file
// must be issued while the guarding Mutex is held. The worker eventcount
// (Worker::epoch) is an atomic, not a condvar, and has its own Dekker
// protocol (see park()/wake_one()).
#include "actor/scheduler.hpp"

#include <bit>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread.hpp"

namespace gpsa {
namespace {

/// Identifies the scheduler (if any) whose worker thread we are on, so
/// enqueue can target the local deque. The scheduler pointer disambiguates
/// nested/multiple ActorSystems: a worker of scheduler A enqueueing into
/// scheduler B takes B's external (injector) path.
struct WorkerTls {
  Scheduler* scheduler = nullptr;
  unsigned index = 0;
};
thread_local WorkerTls tls_worker;

/// xorshift64: cheap per-worker victim selection. Never returns 0 state.
std::uint64_t next_random(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Fairness period: every kFairnessTick-th slice a worker services the
/// FIFO ends (injector, then its own deque's top) before its local LIFO
/// end, bounding how long local churn can delay anyone else. Prime, so it
/// does not resonate with power-of-two batch shapes.
constexpr std::uint64_t kFairnessTick = 61;

/// Per steal episode, at most this many extra units migrate (besides the
/// one returned for immediate execution).
constexpr std::size_t kMaxStealBatch = 16;
/// Victims shallower than this give up exactly one unit per steal —
/// batching a 2-3 deep backlog just bounces tasks between thieves.
constexpr std::size_t kStealBatchMinDepth = 4;

}  // namespace

Scheduler::Scheduler(unsigned worker_count, std::size_t batch_size)
    : batch_size_(batch_size) {
  GPSA_CHECK(worker_count > 0);
  GPSA_CHECK(batch_size > 0);
  worker_state_.reserve(worker_count);
  SplitMix64 seeder(0x675053415F575351ULL);  // "GPSA_WSQ"
  for (unsigned i = 0; i < worker_count; ++i) {
    worker_state_.push_back(std::make_unique<Worker>(seeder.next() | 1));
  }
  parked_word_count_ = (worker_count + 63) / 64;
  parked_words_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(parked_word_count_);
  for (std::size_t w = 0; w < parked_word_count_; ++w) {
    parked_words_[w].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::enqueue(Schedulable* unit) {
  GPSA_DCHECK(unit != nullptr);
  if (stop_flag_.load(std::memory_order_acquire)) {
    return;  // shutdown in progress; work is dropped by design
  }
  // Count the unit as pending BEFORE publishing it: a parker that reads
  // pending_ == 0 after setting its parked bit knows every published unit
  // has already been claimed (see park()).
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (tls_worker.scheduler == this) {
    // Mailbox-notify fast path: a send from a worker thread lands on that
    // worker's own deque; the overflow injector absorbs a full deque.
    if (!worker_state_[tls_worker.index]->deque.push(unit)) {
      inject(unit);
    }
  } else {
    inject(unit);
  }
  wake_one();
}

void Scheduler::inject(Schedulable* unit) {
  MutexLock lock(injector_mutex_);
  injector_.push_back(unit);
  injector_size_.store(injector_.size(), std::memory_order_release);
}

Schedulable* Scheduler::pop_injector() {
  if (injector_size_.load(std::memory_order_acquire) == 0) {
    return nullptr;  // cheap miss: skip the lock
  }
  MutexLock lock(injector_mutex_);
  if (injector_.empty()) {
    return nullptr;
  }
  Schedulable* unit = injector_.front();
  injector_.pop_front();
  injector_size_.store(injector_.size(), std::memory_order_release);
  return unit;
}

void Scheduler::wake_one() {
  for (std::size_t w = 0; w < parked_word_count_; ++w) {
    std::uint64_t mask = parked_words_[w].load(std::memory_order_seq_cst);
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
      if (parked_words_[w].compare_exchange_weak(
              mask, mask & ~(std::uint64_t{1} << bit),
              std::memory_order_seq_cst, std::memory_order_seq_cst)) {
        Worker& sleeper = *worker_state_[w * 64 + bit];
        sleeper.epoch.fetch_add(1, std::memory_order_seq_cst);
        // Atomic eventcount, not a condvar: the waiter waits on the epoch
        // value itself, so there is no separate waiter object to destroy.
        sleeper.epoch.notify_one();  // gpsa-lint: allow(locked-notify)
        return;  // wake at most one sleeper per published unit
      }
      // CAS failure reloaded `mask`; retry within this word.
    }
  }
}

void Scheduler::stop() {
  stop_flag_.store(true, std::memory_order_seq_cst);
  // Wake everyone regardless of the parked bitmap: a worker between its
  // bit-set and its wait sees either the flag or the epoch bump.
  for (auto& worker : worker_state_) {
    worker->epoch.fetch_add(1, std::memory_order_seq_cst);
    // Atomic eventcount (see wake_one): no condvar lifetime to protect.
    worker->epoch.notify_all();  // gpsa-lint: allow(locked-notify)
  }
  // Idempotent: a second call finds every worker already joined.
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

void Scheduler::worker_loop(unsigned index) {
  set_current_thread_name("gpsa-w" + std::to_string(index));
  tls_worker = WorkerTls{this, index};
  Worker& self = *worker_state_[index];
  while (true) {
    Schedulable* unit = next_unit(self, index);
    if (unit == nullptr) {
      if (!park(self, index)) {
        break;
      }
      continue;
    }
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    slices_.fetch_add(1, std::memory_order_relaxed);
    // Consecutive same-job run length for the per-job fair-share budget
    // (next_unit). Owner-private, so plain reads/writes are fine.
    const std::uint32_t tag = unit->job_tag();
    if (tag == self.last_job_tag) {
      ++self.job_run_len;
    } else {
      self.last_job_tag = tag;
      self.job_run_len = 1;
    }
    unit->slice_begin();
    const bool more = unit->execute_batch(batch_size_);
    unit->slice_end();
    if (more) {
      enqueue(unit);
    }
  }
  tls_worker = WorkerTls{};
}

Schedulable* Scheduler::next_unit(Worker& self, unsigned index) {
  ++self.tick;
  const std::uint64_t job_budget =
      fair_budget_.load(std::memory_order_relaxed);
  const bool fairness_due =
      self.tick % kFairnessTick == 0 ||
      (job_budget != 0 && self.job_run_len >= job_budget);
  if (fairness_due) {
    // Fairness tick: service the FIFO ends first so local LIFO churn can
    // delay the injector / our own deque's far end by at most one period.
    // The per-job budget arms the same path early once a worker has run
    // `job_budget` consecutive slices of one job; if no other job has
    // work queued, the pops below fall through and the same job simply
    // continues (work conservation — the budget never idles a worker).
    if (Schedulable* unit = pop_injector()) {
      return unit;
    }
    if (auto oldest = self.deque.steal()) {  // own deque, FIFO end
      return *oldest;
    }
  }
  if (auto local = self.deque.pop()) {
    return *local;
  }
  if (Schedulable* unit = pop_injector()) {
    if (injector_size_.load(std::memory_order_relaxed) > 0) {
      wake_one();  // the injector still has work: recruit another sleeper
    }
    return unit;
  }
  return try_steal(self, index);
}

Schedulable* Scheduler::try_steal(Worker& self, unsigned index) {
  // worker_state_ is fully built before the first worker thread starts;
  // workers_ (the thread vector) is still growing at that point, so its
  // size must not be read from worker context.
  const unsigned n = static_cast<unsigned>(worker_state_.size());
  if (n <= 1) {
    return nullptr;
  }
  // Two sweeps over the victims in random rotation: one transient CAS
  // failure (empty-steal ABA window) should not send us to sleep while a
  // victim still has a backlog. Sweep 0 is depth-selective — it passes
  // over shallow victims so thieves gravitate to the deepest backlogs
  // first; sweep 1 takes anything (work conservation).
  for (int sweep = 0; sweep < 2; ++sweep) {
    const unsigned start =
        static_cast<unsigned>(next_random(self.rng_state) % n);
    for (unsigned i = 0; i < n; ++i) {
      const unsigned v = (start + i) % n;
      if (v == index) {
        continue;
      }
      WorkStealingDeque<Schedulable*>& victim = worker_state_[v]->deque;
      const std::size_t depth = victim.approx_size();
      if (sweep == 0 && depth < 2) {
        continue;  // also skips the empty-deque CAS attempt entirely
      }
      auto first = victim.steal();
      if (!first) {
        continue;
      }
      steals_.fetch_add(1, std::memory_order_relaxed);
      // Batch-aware steal sizing: migrate up to half of the victim's
      // remaining backlog, but only when the backlog is deep enough that
      // the batch won't immediately ping-pong back. On small graphs most
      // deques hold one or two units; batching those just re-steals the
      // same task back and forth (ROADMAP: "steal churn on small
      // graphs"), so shallow victims give up exactly one unit. Each
      // extra moves via a proven single-unit CAS (a batched top_ CAS
      // over a range can race the owner's non-CAS pop path).
      std::size_t moved = 0;
      if (depth >= kStealBatchMinDepth) {
        std::size_t want = depth / 2;
        want = want < kMaxStealBatch ? want : kMaxStealBatch;
        while (moved < want) {
          auto extra = victim.steal();
          if (!extra) {
            break;
          }
          if (!self.deque.push(*extra)) {
            inject(*extra);
          }
          ++moved;
        }
      }
      if (moved > 0) {
        steal_extras_.fetch_add(moved, std::memory_order_relaxed);
        wake_one();  // we hold a surplus now; let a sleeper steal from us
      }
      return *first;
    }
  }
  return nullptr;
}

bool Scheduler::park(Worker& self, unsigned index) {
  const std::uint32_t ticket = self.epoch.load(std::memory_order_seq_cst);
  const std::size_t word = index / 64;
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  parked_words_[word].fetch_or(bit, std::memory_order_seq_cst);
  // Publish-then-recheck (Dekker against enqueue's pending_-then-bitmap
  // order): if pending_ reads 0 here, every enqueued unit has been claimed
  // by some running worker, so sleeping is safe; otherwise rescan. Our own
  // deque cannot receive work while we sleep (only the owner pushes), so
  // unclaimed work lives in the injector or an awake worker's deque.
  bool rescan = pending_.load(std::memory_order_seq_cst) > 0;
  if (stop_flag_.load(std::memory_order_seq_cst)) {
    parked_words_[word].fetch_and(~bit, std::memory_order_seq_cst);
    return false;
  }
  if (!rescan) {
    self.epoch.wait(ticket, std::memory_order_seq_cst);
  }
  parked_words_[word].fetch_and(~bit, std::memory_order_seq_cst);
  return !stop_flag_.load(std::memory_order_seq_cst);
}

}  // namespace gpsa
