#include "platform/file_util.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace gpsa {

namespace fs = std::filesystem;

Result<ScratchDir> ScratchDir::create(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const char* tmpdir = std::getenv("TMPDIR");  // gpsa-lint: allow(raw-getenv)
  const std::string base = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::uint64_t nonce = counter.fetch_add(1);
  std::string path = base + "/gpsa-" + tag + "-" +
                     std::to_string(::getpid()) + "-" + std::to_string(nonce);
  std::error_code ec;
  if (!fs::create_directories(path, ec) && ec) {
    return io_error("create_directories " + path + ": " + ec.message());
  }
  ScratchDir out;
  out.path_ = std::move(path);
  out.owned_ = true;
  return out;
}

ScratchDir::~ScratchDir() {
  if (owned_ && !path_.empty()) {
    (void)remove_tree(path_);  // best effort
  }
}

ScratchDir::ScratchDir(ScratchDir&& other) noexcept {
  *this = std::move(other);
}

ScratchDir& ScratchDir::operator=(ScratchDir&& other) noexcept {
  if (this != &other) {
    if (owned_ && !path_.empty()) {
      (void)remove_tree(path_);
    }
    path_ = std::move(other.path_);
    owned_ = std::exchange(other.owned_, false);
    other.path_.clear();
  }
  return *this;
}

Status write_file(const std::string& path, const void* data,
                  std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return io_error("write_file: cannot open " + path);
  }
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!out) {
    return io_error("write_file: short write to " + path);
  }
  return Status::ok();
}

Result<std::vector<std::byte>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return not_found("read_file: cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> data(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(data.data()), size)) {
    return io_error("read_file: short read from " + path);
  }
  return data;
}

Result<std::uint64_t> file_size(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return not_found("file_size " + path + ": " + ec.message());
  }
  return static_cast<std::uint64_t>(size);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return io_error("remove " + path + ": " + ec.message());
  }
  return Status::ok();
}

Status remove_tree(const std::string& path) {
  if (path.empty() || path == "/") {
    return invalid_argument("remove_tree refuses path '" + path + "'");
  }
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return io_error("remove_all " + path + ": " + ec.message());
  }
  return Status::ok();
}

}  // namespace gpsa
