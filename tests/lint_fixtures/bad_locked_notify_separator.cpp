// gpsa-lint: locked-notify
// Fixture: exactly one locked-notify finding (line 16). The `'` in 1'000
// is a digit separator, not the start of a char literal: read as one, it
// would blank the rest of its line, the `}` closing the lock scope
// included, and hide the notify after that scope.
#include <condition_variable>
#include <mutex>

struct Spinner {
  std::mutex mutex_;
  std::condition_variable cv_;
  int spins_ = 0;

  void reset_racily() {
    { std::lock_guard<std::mutex> lock(mutex_); spins_ = 1'000; }
    cv_.notify_all();  // after the lock scope closed: finding
  }
};
