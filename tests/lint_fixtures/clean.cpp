// gpsa-lint: locked-notify
// Fixture: zero findings — every rule's compliant shape plus one
// suppressed violation per suppressible rule.
#include <atomic>
#include <condition_variable>
#include <mutex>

std::atomic<int> counter{0};

int suppressed_order() {
  return counter.load(std::memory_order_relaxed);  // gpsa-lint: allow(memory-order)
}

int plain_order() { return counter.load(); }

using BitmapWord = unsigned long long;
BitmapWord bitmap_word;

BitmapWord suppressed_bitmap_ref() {
  return std::atomic_ref<BitmapWord>(bitmap_word).load();  // gpsa-lint: allow(bitmap-atomic-ref)
}

int suppressed_socket(int fd, const sockaddr* addr, unsigned len) {
  return ::connect(fd, addr, len);  // gpsa-lint: allow(raw-socket)
}

const char* suppressed_getenv() {
  return std::getenv("TMPDIR");  // gpsa-lint: allow(raw-getenv)
}

struct VertexMessage {};

void suppressed_buffer_alloc() {
  std::vector<VertexMessage> buffer;
  buffer.reserve(1024);  // gpsa-lint: allow(msg-buffer-alloc)
}

struct Waitable {
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;

  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  }
};
