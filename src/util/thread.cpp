#include "util/thread.hpp"

#include <pthread.h>

#include "util/knobs.hpp"

namespace gpsa {

void set_current_thread_name(const std::string& name) {
  std::string truncated = name.substr(0, 15);
  pthread_setname_np(pthread_self(), truncated.c_str());
}

unsigned default_worker_count() {
  const std::uint64_t threads = knob_or_default<std::uint64_t>("GPSA_THREADS");
  if (threads > 0) {
    return static_cast<unsigned>(threads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace gpsa
