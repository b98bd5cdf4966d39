// The environment knobs: one table row per GPSA_* variable that src/
// reads (name, kind, default, accepted range, one-line doc), and the only
// getenv for them (knobs.cpp). README's "Environment knobs" table lists
// the same rows.
//
// One rule everywhere:
//   unset or empty             the row's default (an error if it has none)
//   malformed or out of range  InvalidArgument naming the knob, the value
//                              and the accepted range
//
// Readers that return a Status propagate the error. Readers whose
// signatures cannot carry one call knob_or_default, which logs it as a
// warning and returns the default. An explicit option beats the
// environment: callers read a knob only when their option is unset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace gpsa {

/// kUnsigned reads as std::uint64_t, kFloat as double, kBool as bool,
/// kEnum (one of `choices`) and kText as std::string.
enum class KnobKind : std::uint8_t { kUnsigned, kFloat, kBool, kEnum, kText };

struct KnobSpec {
  const char* name;
  KnobKind kind;
  /// The default, spelled as it would be in the environment. Empty on a
  /// numeric row means the variable is required: knob() errors when unset.
  std::string_view fallback;
  /// Accepted range, inclusive (kUnsigned, kFloat).
  double min;
  double max;
  /// Accepted spellings, '|'-separated (kBool, kEnum).
  std::string_view choices;
  std::string_view doc;
};

inline constexpr std::string_view kKnobBool = "1|0|true|false|on|off|yes|no";

inline constexpr KnobSpec kKnobTable[] = {
    {"GPSA_THREADS", KnobKind::kUnsigned, "0", 0, 1024, "",
     "scheduler worker threads; 0 = one per hardware thread"},
    {"GPSA_LOCKDEP", KnobKind::kBool, "0", 0, 0, kKnobBool,
     "record lock acquisition order and abort on a cycle (DESIGN.md §15)"},
    {"GPSA_IO_BACKEND", KnobKind::kEnum, "mmap", 0, 0, "mmap|pread|uring",
     "how CSR streams become resident; uring falls back to pread"},
    {"GPSA_READAHEAD_MB", KnobKind::kUnsigned, "8", 0, 65536, "",
     "readahead window ahead of each dispatcher's cursor; 0 disables"},
    {"GPSA_IO_DROP_BEHIND", KnobKind::kBool, "1", 0, 0, kKnobBool,
     "release the dispatched CSR prefix (GraphService: off unless set in "
     "its options)"},
    {"GPSA_IO_BLOCK_KB", KnobKind::kUnsigned, "256", 4, 65536, "",
     "block size of the pread/uring block cache"},
    {"GPSA_IO_THREADS", KnobKind::kUnsigned, "2", 1, 64, "",
     "pread prefetch pool threads"},
    {"GPSA_CSR_FORMAT", KnobKind::kEnum, "v1", 0, 0, "v1|v2",
     "CSR encoding written at preprocessing"},
    {"GPSA_CSR_ORDER", KnobKind::kEnum, "none", 0, 0, "none|degree|bfs",
     "vertex renumbering at preprocessing (needs v2)"},
    {"GPSA_CHECKPOINT_INTERVAL", KnobKind::kUnsigned, "1", 1, 1e9, "",
     "checkpoint the value file every Nth superstep"},
    {"GPSA_DELTA_EPS", KnobKind::kFloat, "1e-7", 0, 1, "",
     "residual below which delta programs stop re-activating"},
    {"GPSA_SERVICE_MAX_JOBS", KnobKind::kUnsigned, "4", 1, 1024, "",
     "GraphService concurrent jobs (one runner thread each)"},
    {"GPSA_SERVICE_MAX_QUEUE", KnobKind::kUnsigned, "256", 1, 1048576, "",
     "GraphService queued jobs before submit() rejects"},
    {"GPSA_CLUSTER_RANK", KnobKind::kUnsigned, "", 0, 1023, "",
     "this process's rank in a multi-process cluster run"},
    {"GPSA_CLUSTER_RANKS", KnobKind::kUnsigned, "", 1, 1024, "",
     "rank count of a multi-process cluster run"},
    {"GPSA_CLUSTER_PORT", KnobKind::kUnsigned, "29600", 1, 65535, "",
     "rendezvous base port; rank k listens on port + k"},
    {"GPSA_NET_TIMEOUT_MS", KnobKind::kUnsigned, "30000", 1, 3600000, "",
     "deadline before a silent peer is declared dead"},
    {"GPSA_MODEL_DISK_MBPS", KnobKind::kFloat, "120", 0, 1e6, "",
     "modeled out-of-core disk bandwidth; 0 disables the model"},
    {"GPSA_MODEL_RAM_MB", KnobKind::kFloat, "0.5", 0, 1e6, "",
     "modeled RAM budget of the out-of-core column"},
    {"GPSA_BENCH_SCALE", KnobKind::kFloat, "0.25", 0.001, 1000, "",
     "bench dataset scale multiplier"},
    {"GPSA_BENCH_RUNS", KnobKind::kUnsigned, "3", 1, 1000, "",
     "bench repetitions per cell"},
    {"GPSA_BENCH_JSON", KnobKind::kText, "", 0, 0, "",
     "bench binaries also write their results as JSON to this path"},
};

/// A row of kKnobTable, named by its variable: knob<T>("GPSA_THREADS").
/// A name that is not a row does not compile.
struct KnobName {
  consteval KnobName(const char* name) : row(0) {
    while (std::string_view(kKnobTable[row].name) != name) {
      if (++row == std::size(kKnobTable)) {
        throw "not a row of kKnobTable";
      }
    }
  }
  constexpr explicit KnobName(std::size_t table_row) : row(table_row) {}
  std::size_t row;
};

/// `text` read by `spec`'s rule: the whole text must spell a T inside the
/// row's range, or the result is an InvalidArgument naming spec.name, the
/// text and the range. knob<T> applies it to the environment and Config
/// (util/config.hpp) to command-line flags. T is std::uint64_t, double,
/// bool or std::string, matching spec.kind.
template <typename T>
Result<T> parse_knob(const KnobSpec& spec, std::string_view text);

/// The knob's environment setting, or its default when unset or empty.
/// T must match the row's kind (instantiated in knobs.cpp for the four).
template <typename T>
Result<T> knob(KnobName which);

/// knob(which), or its default after one warning through GPSA_LOG.
template <typename T>
T knob_or_default(KnobName which);

}  // namespace gpsa
