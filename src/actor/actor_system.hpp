// Owns a Scheduler plus the actors spawned on it.
//
// Lifetime rules: actors live until shutdown() — or, for actors spawned
// into a job namespace via spawn_in_job(), until despawn_job() retires
// that namespace. Raw Actor<M>* handles returned by spawn()/spawn_in_job()
// remain valid for that whole window. Callers must quiesce their protocol
// (e.g. the GPSA manager's SYSTEM_OVER handshake) before calling
// shutdown(); despawn_job() additionally waits for scheduler-level
// quiescence of the job's actors, so it is safe while other jobs keep
// running on the same scheduler (the multi-tenant GraphService case).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "actor/actor.hpp"
#include "actor/scheduler.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

class ActorSystem {
 public:
  explicit ActorSystem(unsigned worker_count, std::size_t batch_size = 256);
  ~ActorSystem();

  ActorSystem(const ActorSystem&) = delete;
  ActorSystem& operator=(const ActorSystem&) = delete;

  /// Constructs an actor of type T (T must derive from Actor<M> for some M)
  /// and registers it with the scheduler under job namespace 0. Returns a
  /// non-owning handle valid until shutdown().
  template <typename T, typename... Args>
  T* spawn(Args&&... args) {
    return spawn_in_job<T>(0, std::forward<Args>(args)...);
  }

  /// spawn() into an explicit job namespace. Actors of one job never share
  /// mailboxes, bitmaps, or pools with another job's — the tag exists so a
  /// whole job can be retired with despawn_job() while other jobs keep
  /// running, and so the scheduler's per-job fair-share budget can tell
  /// jobs apart. Concurrent spawns of different jobs are safe; a job's
  /// spawns must not race its own despawn.
  template <typename T, typename... Args>
  T* spawn_in_job(std::uint32_t job, Args&&... args) {
    auto actor = std::make_unique<T>(std::forward<Args>(args)...);
    T* handle = actor.get();
    handle->set_job_tag(job);
    handle->attach(&scheduler_);
    {
      MutexLock lock(mutex_);
      actors_.push_back(Entry{job, std::move(actor)});
    }
    return handle;
  }

  /// Destroys every actor spawned under `job` after waiting for the group
  /// to quiesce, while the scheduler (and every other job on it) keeps
  /// running. Quiescence is a double-read of the group's summed
  /// slice-completion counters around a sweep in which every member reads
  /// quiescent(): any concurrent slice manifests as an in-flight count, a
  /// SCHEDULED mailbox state, or a counter bump, so a stable read proves
  /// no member is running, queued, or claimed — and job actors only
  /// message each other, so no new work can arrive once the protocol
  /// (SYSTEM_OVER + drained stray acks) has wound down. At most one
  /// thread may despawn a given job; must not race shutdown().
  void despawn_job(std::uint32_t job) GPSA_EXCLUDES(mutex_);

  Scheduler& scheduler() { return scheduler_; }

  /// Stops the scheduler and destroys all actors. Idempotent.
  void shutdown() GPSA_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::uint32_t job = 0;
    std::unique_ptr<Schedulable> actor;
  };

  Scheduler scheduler_;
  Mutex mutex_{"ActorSystem.registry"};
  std::vector<Entry> actors_ GPSA_GUARDED_BY(mutex_);
  bool shut_down_ GPSA_GUARDED_BY(mutex_) = false;
};

}  // namespace gpsa
