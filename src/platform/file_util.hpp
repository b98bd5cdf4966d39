// Filesystem helpers: scratch directories for engine working files,
// whole-file read/write, and size queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace gpsa {

/// Creates a unique scratch directory (under $TMPDIR or /tmp) and removes it
/// recursively on destruction unless `keep()` is called. Engines place their
/// CSR/value files here when the caller does not supply a working directory.
class ScratchDir {
 public:
  /// `tag` becomes part of the directory name for debuggability.
  static Result<ScratchDir> create(const std::string& tag);

  ScratchDir() = default;
  ~ScratchDir();
  ScratchDir(ScratchDir&& other) noexcept;
  ScratchDir& operator=(ScratchDir&& other) noexcept;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

  /// Disowns the directory (it will not be deleted).
  void keep() { owned_ = false; }

 private:
  std::string path_;
  bool owned_ = false;
};

Status write_file(const std::string& path, const void* data, std::size_t size);
Result<std::vector<std::byte>> read_file(const std::string& path);
Result<std::uint64_t> file_size(const std::string& path);
bool file_exists(const std::string& path);
Status remove_file(const std::string& path);

/// Recursively removes a directory tree. Refuses to act on "/" or "".
Status remove_tree(const std::string& path);

}  // namespace gpsa
