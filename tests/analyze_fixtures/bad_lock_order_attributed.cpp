// gpsa_analyze fixture: TRUE POSITIVE for lock-order across classes
// declared with an attribute.
//
// `class [[nodiscard]] Ledger` and `class [[nodiscard]] Journal` are
// classes, so their two `mu_` members are two locks. Ledger::post holds
// Ledger::mu_ while Journal::append takes Journal::mu_, and
// Journal::replay holds Journal::mu_ while Ledger::credit takes
// Ledger::mu_: a cycle. Read as free code, both members were one
// file-scope `mu_`, and the cycle vanished.

class [[nodiscard]] Journal;

class [[nodiscard]] Ledger {
 public:
  void post(Journal& journal) {
    MutexLock l(mu_);
    journal.append();
  }

  void credit() {
    MutexLock l(mu_);
  }

  Mutex mu_;
};

class [[nodiscard]] Journal {
 public:
  void append() {
    MutexLock l(mu_);
  }

  void replay(Ledger& ledger) {
    MutexLock l(mu_);
    ledger.credit();
  }

  Mutex mu_;
};
