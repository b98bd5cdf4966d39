// gpsa_analyze fixture: TRUE POSITIVE behind a trailing-lambda call.
//
// run_blocks starts a thread and joins it. BlockActor::on_message calls
// it with a trailing lambda, whose `run_blocks(n, [&](int b, int e) {`
// reads like a definition head of run_blocks. Taken as one, its longer
// body shadowed the real run_blocks and hid the join; the call must
// resolve to the real definition, and the join be reported.

void run_blocks(int n, Body body) {
  std::thread worker([&] { body(0, n); });
  worker.join();
}

struct BlockActor {
  void on_message(int n);

  long total_ = 0;
};

void BlockActor::on_message(int n) {
  run_blocks(n, [&](int b, int e) {
    for (int i = b; i < e; ++i) {
      total_ += i;
      total_ ^= total_ >> 3;
      total_ += static_cast<long>(i) * 7;
    }
  });
}
