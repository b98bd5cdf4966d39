// gpsa_analyze fixture, analyzed with pair_file_local_a.cpp: the longer,
// non-blocking file-local read_fully.

namespace {

int read_fully(int fd) {
  int total = 0;
  for (int i = 0; i < fd; ++i) {
    total += i;
    total ^= total >> 3;
    total += i * 7;
  }
  return total;
}

}  // namespace
