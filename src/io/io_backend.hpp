// Pluggable storage I/O subsystem (ROADMAP: "Batch-level value-file
// prefetch"; BPP and the Waterloo analysis in PAPERS.md both attribute
// most cross-system variance in disk graph engines to the I/O strategy,
// so it is a first-class, swappable component here rather than raw mmap
// calls scattered through storage/ and graph/).
//
// Three planes:
//
//   1. Streaming reads (the dispatcher's sequential CSR record scan — the
//      bulk of every superstep's byte volume) go through IoReadStream, a
//      windowed view with explicit readahead (will_need) and drop-behind
//      hints. Backends: MmapBackend (pointer into the mapping plus
//      madvise windows — the paper's §IV.C substrate), PreadPoolBackend
//      (aligned block cache filled by buffered pread on a small thread
//      pool), and UringBackend (the same block cache with reads submitted
//      as io_uring SQEs; compiled behind the GPSA_WITH_URING probe and
//      runtime-probed, falling back cleanly when the kernel refuses).
//   2. The value file's *data plane* stays mmap in every backend — its
//      slots are shared mutable state accessed through std::atomic_ref by
//      dispatchers and computing actors concurrently, which buffered
//      reads cannot provide (DESIGN.md §9). Construction still flows
//      through the backend so residency policy is applied uniformly, and
//      the readahead scheduler keeps upcoming column pages resident via
//      madvise windows in all backends.
//   3. Counters (bytes prefetched, window hits/misses, stall time) flow
//      into metrics/io_model.hpp's PrefetchCounters for reporting.
//
// Runtime selection: GPSA_IO_BACKEND=mmap|pread|uring (EngineOptions::io
// overrides); readahead window via GPSA_READAHEAD_MB (0 disables).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "metrics/io_model.hpp"
#include "storage/value_file.hpp"
#include "util/status.hpp"

namespace gpsa {

enum class IoBackendKind { kMmap, kPread, kUring };

const char* io_backend_name(IoBackendKind kind);

/// Caller-facing knobs. Every field defaults to its environment variable
/// (falling back to the built-in default) when left unset, so benches and
/// tests can pin values while ordinary runs follow the environment.
struct IoOptions {
  /// GPSA_IO_BACKEND (default mmap). An explicitly requested uring that
  /// the build or kernel cannot provide falls back to pread with a log
  /// warning instead of failing the run.
  std::optional<IoBackendKind> backend;
  /// GPSA_READAHEAD_MB (default 8 MiB). 0 disables readahead and
  /// drop-behind entirely.
  std::optional<std::size_t> readahead_bytes;
  /// GPSA_IO_DROP_BEHIND (default true): DONTNEED/evict the consumed
  /// prefix of the CSR stream behind each dispatcher's cursor.
  std::optional<bool> drop_behind;
  /// GPSA_IO_BLOCK_KB (default 256 KiB): block size of the pread/uring
  /// aligned block cache.
  std::optional<std::size_t> block_bytes;
  /// GPSA_IO_THREADS (default 2): pread prefetch pool size.
  std::optional<unsigned> io_threads;

  /// Applies environment + defaults, validates, and resolves unsupported
  /// backend requests to their fallback. A malformed or out-of-range
  /// environment value is an InvalidArgument (util/knobs.hpp).
  Result<struct IoConfig> resolve() const;
};

/// Fully resolved configuration consumed by the backends.
struct IoConfig {
  IoBackendKind backend = IoBackendKind::kMmap;
  std::size_t readahead_bytes = 8u << 20;
  bool drop_behind = true;
  std::size_t block_bytes = 256u << 10;
  unsigned io_threads = 2;

  /// Block-cache capacity: the readahead window plus slack for the
  /// pinned fetch range.
  [[nodiscard]] std::size_t cache_blocks() const {
    const std::size_t window = readahead_bytes / block_bytes;
    return (window < 2 ? 2 : window) + 2;
  }
};

/// A read-only byte stream over one file. Not thread-safe: each stream
/// belongs to one consumer (a dispatcher); the backend's internals handle
/// any cross-thread completion traffic.
class IoReadStream {
 public:
  virtual ~IoReadStream() = default;

  virtual std::size_t size() const = 0;

  /// Pointer to the `length` bytes at `offset`, contiguous, valid until
  /// the next fetch() on this stream. Returns nullptr on an I/O error
  /// (see status()); out-of-bounds ranges are a programming error
  /// (callers index through validated CSR offsets).
  virtual const std::byte* fetch(std::uint64_t offset, std::size_t length) = 0;

  /// Hint: [offset, offset+length) will be fetched soon. Backends load it
  /// ahead of the cursor (madvise WILLNEED / pool pread / uring submit).
  virtual void will_need(std::uint64_t offset, std::size_t length) = 0;

  /// Hint: bytes below `offset` were consumed and won't be re-fetched.
  virtual void drop_behind(std::uint64_t offset) = 0;

  /// Last I/O error after a nullptr fetch (OK otherwise).
  [[nodiscard]] virtual Status status() const = 0;

  virtual PrefetchCounters counters() const = 0;
};

/// Factory for streams and value files. Create via IoBackend::create; the
/// backend must outlive every stream it opened.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual IoBackendKind kind() const = 0;
  const char* name() const { return io_backend_name(kind()); }
  const IoConfig& config() const { return config_; }

  virtual Result<std::unique_ptr<IoReadStream>> open_stream(
      const std::string& path) = 0;

  /// Value-file construction routed through the backend (see header
  /// comment: the data plane is mmap everywhere; the backend applies its
  /// residency policy).
  virtual Result<ValueFile> create_value_file(const std::string& path,
                                              VertexId num_vertices,
                                              const std::string& app_tag);
  virtual Result<ValueFile> open_value_file(const std::string& path);

  /// Whether `kind` can work here (uring: compile-time probe AND a
  /// successful runtime io_uring_setup; mmap/pread: always).
  [[nodiscard]] static bool supported(IoBackendKind kind);

  /// Builds the backend for config.backend (resolve() already replaced
  /// unsupported requests).
  static Result<std::unique_ptr<IoBackend>> create(const IoConfig& config);

 protected:
  explicit IoBackend(const IoConfig& config) : config_(config) {}

  IoConfig config_;
};

}  // namespace gpsa
