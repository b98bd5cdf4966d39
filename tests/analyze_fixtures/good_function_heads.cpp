// gpsa_analyze fixture: TRUE NEGATIVES for definition heads.
//
// `if constexpr (kChecked) {` and `explicit operator bool() const {` are
// no definitions of functions named `constexpr` or `bool`. Read as
// one, Gate's waiting conversion became a function `bool` that
// FlagActor's cast `bool(flags)` called, a false actor-blocking path.
// The model holds exactly four functions: Gate::wait_open,
// FlagActor::on_message, FlagActor::check and settle.

struct Gate {
  explicit operator bool() const {
    MutexLock l(mu_);
    cv_.wait(l);
    return open_;
  }

  void wait_open() {
    open_ = true;
  }

  Mutex mu_;
  CondVar cv_;
  bool open_ = false;
};

struct FlagActor {
  void on_message(int flags) {
    if constexpr (kChecked) {
      check(flags);
    }
    any_ = bool(flags);
  }

  void check(int flags) {
    any_ = flags != 0;
  }

  bool any_ = false;
};

template <bool kWait>
void settle(Gate& gate) {
  if constexpr (kWait) {
    gate.wait_open();
  }
}
