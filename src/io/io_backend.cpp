#include "io/io_backend.hpp"

#include "util/knobs.hpp"
#include "util/logging.hpp"

namespace gpsa {

// Implemented in the per-backend translation units.
Result<std::unique_ptr<IoBackend>> make_mmap_backend(const IoConfig& config);
Result<std::unique_ptr<IoBackend>> make_pread_backend(const IoConfig& config);
Result<std::unique_ptr<IoBackend>> make_uring_backend(const IoConfig& config);
bool uring_runtime_supported();

const char* io_backend_name(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kMmap:
      return "mmap";
    case IoBackendKind::kPread:
      return "pread";
    case IoBackendKind::kUring:
      return "uring";
  }
  return "unknown";
}

Result<IoConfig> IoOptions::resolve() const {
  IoConfig config;

  // Explicit fields beat the environment, which beats the defaults.
  if (backend.has_value()) {
    config.backend = *backend;
  } else {
    GPSA_ASSIGN_OR_RETURN(const std::string name,
                          knob<std::string>("GPSA_IO_BACKEND"));
    for (const IoBackendKind kind : {IoBackendKind::kPread,
                                     IoBackendKind::kUring}) {
      if (name == io_backend_name(kind)) {
        config.backend = kind;
      }
    }
  }
  if (readahead_bytes.has_value()) {
    config.readahead_bytes = *readahead_bytes;
  } else {
    GPSA_ASSIGN_OR_RETURN(const std::uint64_t mb,
                          knob<std::uint64_t>("GPSA_READAHEAD_MB"));
    config.readahead_bytes = static_cast<std::size_t>(mb) << 20;
  }
  if (drop_behind.has_value()) {
    config.drop_behind = *drop_behind;
  } else {
    GPSA_ASSIGN_OR_RETURN(config.drop_behind,
                          knob<bool>("GPSA_IO_DROP_BEHIND"));
  }
  if (block_bytes.has_value()) {
    config.block_bytes = *block_bytes;
  } else {
    GPSA_ASSIGN_OR_RETURN(const std::uint64_t kb,
                          knob<std::uint64_t>("GPSA_IO_BLOCK_KB"));
    config.block_bytes = static_cast<std::size_t>(kb) << 10;
  }
  if (io_threads.has_value()) {
    config.io_threads = *io_threads;
  } else {
    GPSA_ASSIGN_OR_RETURN(const std::uint64_t threads,
                          knob<std::uint64_t>("GPSA_IO_THREADS"));
    config.io_threads = static_cast<unsigned>(threads);
  }

  if (config.block_bytes < (4u << 10)) {
    return invalid_argument("IoOptions: block_bytes must be >= 4 KiB");
  }
  if (config.io_threads == 0) {
    return invalid_argument("IoOptions: io_threads must be >= 1");
  }

  // The clean-fallback contract: a uring request on a build or kernel
  // without io_uring degrades to pread instead of failing the run.
  if (config.backend == IoBackendKind::kUring &&
      !IoBackend::supported(IoBackendKind::kUring)) {
    GPSA_LOG(Warn) << "io: uring backend unavailable "
                   << "(not compiled in or io_uring_setup refused); "
                   << "falling back to pread";
    config.backend = IoBackendKind::kPread;
  }
  return config;
}

Result<ValueFile> IoBackend::create_value_file(const std::string& path,
                                               VertexId num_vertices,
                                               const std::string& app_tag) {
  // The mmap data plane with kRandom advice is the shared default;
  // backends only differ in how the readahead plane keeps column windows
  // resident (readahead.hpp).
  return ValueFile::create(path, num_vertices, app_tag);
}

Result<ValueFile> IoBackend::open_value_file(const std::string& path) {
  return ValueFile::open(path);
}

bool IoBackend::supported(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kMmap:
    case IoBackendKind::kPread:
      return true;
    case IoBackendKind::kUring:
      return uring_runtime_supported();
  }
  return false;
}

Result<std::unique_ptr<IoBackend>> IoBackend::create(const IoConfig& config) {
  switch (config.backend) {
    case IoBackendKind::kMmap:
      return make_mmap_backend(config);
    case IoBackendKind::kPread:
      return make_pread_backend(config);
    case IoBackendKind::kUring:
      return make_uring_backend(config);
  }
  return invalid_argument("IoBackend::create: bad backend kind");
}

}  // namespace gpsa
