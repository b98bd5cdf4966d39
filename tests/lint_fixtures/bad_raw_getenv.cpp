// Fixture: exactly one raw-getenv finding (line 7). Lint-only, never compiled.
#include <cstdlib>

unsigned threads_without_table() {
  // std::getenv("GPSA_THREADS") in a comment must not fire; neither must
  // this string: "getenv(".
  const char* raw = std::getenv("GPSA_THREADS");
  return raw == nullptr ? 1 : 2;
}

// Member calls and prefixed names must not fire:
struct Env;
void member_calls(Env& e, Env* p) {
  e.getenv("A");
  p->getenv("B");
  my_getenv("C");
}
