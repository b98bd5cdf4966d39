// gpsa_analyze fixture: TRUE POSITIVES for lease-balance.
//
// Leaky::drop discards the lease() result outright; Leaky::hoard keeps
// the buffer in a local that neither reaches recycle() nor is moved to
// a new owner; Leaky::park stores it into a member with no transfer note.
// Each retires a pooled buffer (a steady-state pool miss): all reported.

struct Leaky {
  void drop() {
    pool_->lease();
  }

  void hoard() {
    auto buffer = pool_->lease();
    buffer.clear();
    count_ += static_cast<int>(buffer.capacity());
  }

  void park() {
    parked_ = pool_->lease();  // member store, no transfer note
  }

  MessageBatchPool* pool_ = nullptr;
  int count_ = 0;
  std::vector<VertexMessage> parked_;
};
