// gpsa_analyze fixture, analyzed with pair_file_local_b.cpp: TRUE
// POSITIVE through a file-local function that another file also defines.
//
// Both files define their own read_fully; this file's blocks in
// ::pread, the other's, longer, does not. ReadActor::on_message calls
// this file's. Keeping one definition per name kept the other file's
// and hid the pread; both must stay, and the pread be reported.

namespace {

int read_fully(int fd) {
  return ::pread(fd, nullptr, 0, 0);
}

}  // namespace

struct ReadActor {
  void on_message(int fd) {
    read_fully(fd);
  }
};
