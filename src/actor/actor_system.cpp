#include "actor/actor_system.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace gpsa {

ActorSystem::ActorSystem(unsigned worker_count, std::size_t batch_size)
    : scheduler_(worker_count, batch_size) {}

ActorSystem::~ActorSystem() { shutdown(); }

void ActorSystem::despawn_job(std::uint32_t job) {
  // Collect the group's raw pointers; the entries stay owned by actors_
  // (and thus alive) until the erase below, and the single-despawner
  // contract means nobody else removes them meanwhile.
  std::vector<Schedulable*> group;
  {
    MutexLock lock(mutex_);
    if (shut_down_) {
      return;  // shutdown() already destroyed everything
    }
    for (const Entry& entry : actors_) {
      if (entry.job == job) {
        group.push_back(entry.actor.get());
      }
    }
  }
  if (group.empty()) {
    return;
  }

  // Quiescence wait. Old teardown assumed one engine's actor set: stop the
  // scheduler, then destroy — joining the workers was what made "no slice
  // still touches this actor" true. Here the workers keep running other
  // jobs, so we prove the same property per group instead: read the summed
  // slice counter, sweep quiescent(), read the sum again. A slice that
  // overlaps the sweep either is still counted in flight (sweep fails),
  // left the unit SCHEDULED (sweep fails), or completed — which bumped the
  // counter before dropping its in-flight count (sums differ). Stable sums + an
  // all-quiescent sweep therefore prove no worker is inside, about to
  // enter, or able to re-enter any member.
  unsigned spins = 0;
  for (;;) {
    std::uint64_t before = 0;
    for (const Schedulable* unit : group) {
      before += unit->slices_completed();
    }
    bool all_quiescent = true;
    for (const Schedulable* unit : group) {
      if (!unit->quiescent()) {
        all_quiescent = false;
        break;
      }
    }
    std::uint64_t after = 0;
    for (const Schedulable* unit : group) {
      after += unit->slices_completed();
    }
    if (all_quiescent && before == after) {
      break;
    }
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  MutexLock lock(mutex_);
  std::erase_if(actors_,
                [job](const Entry& entry) { return entry.job == job; });
}

void ActorSystem::shutdown() {
  scheduler_.stop();
  MutexLock lock(mutex_);
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  actors_.clear();
}

}  // namespace gpsa
