// gpsa_analyze fixture: TRUE POSITIVE through an overload.
//
// send_frame has two overloads: the short one blocks in ::send, the
// longer one only stages bytes. FrameActor::on_message calls the name,
// which may reach either; keeping only the longer definition hid the
// send. Both overloads must stay in the model, and the send be reported.

void send_frame(int fd) {
  ::send(fd, nullptr, 0, 0);
}

void send_frame(int fd, int flags) {
  for (int i = 0; i < flags; ++i) {
    staged_bytes += fd;
    staged_bytes ^= staged_bytes >> 3;
    staged_bytes += static_cast<long>(i) * 7;
  }
}

struct FrameActor {
  void on_message(int fd) {
    send_frame(fd);
  }
};
