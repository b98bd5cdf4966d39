#include "core/message_pool.hpp"

#include "util/check.hpp"

namespace gpsa {

MessageBatchPool::MessageBatchPool(std::size_t batch_capacity)
    : batch_capacity_(batch_capacity) {
  GPSA_CHECK(batch_capacity_ > 0);
}

std::vector<VertexMessage> MessageBatchPool::lease() {
  {
    MutexLock lock(mutex_);
    ++leases_;
    if (!free_.empty()) {
      ++hits_;
      std::vector<VertexMessage> buffer = std::move(free_.back());
      free_.pop_back();
      return buffer;
    }
    ++misses_;
    if (supersteps_marked_ >= 2) {
      ++steady_misses_;
    }
  }
  // The one sanctioned allocation site for message batch buffers (the
  // gpsa-lint msg-buffer-alloc rule confines sized construction and
  // reserve/resize of VertexMessage vectors to this file).
  std::vector<VertexMessage> buffer;
  buffer.reserve(batch_capacity_);
  return buffer;
}

void MessageBatchPool::recycle(std::vector<VertexMessage>&& buffer) {
  buffer.clear();  // destroys nothing (trivial elements), keeps capacity
  MutexLock lock(mutex_);
  recycled_bytes_ += buffer.capacity() * sizeof(VertexMessage);
  free_.push_back(std::move(buffer));
}

void MessageBatchPool::mark_superstep() {
  MutexLock lock(mutex_);
  ++supersteps_marked_;
}

MessagePoolStats MessageBatchPool::stats() const {
  MutexLock lock(mutex_);
  MessagePoolStats out;
  out.leases = leases_;
  out.hits = hits_;
  out.misses = misses_;
  out.steady_misses = steady_misses_;
  out.recycled_bytes = recycled_bytes_;
  out.free_buffers = free_.size();
  return out;
}

}  // namespace gpsa
