// Minimal JSON emitter for the bench binaries.
//
// The overlap ablation honours GPSA_BENCH_JSON=<path> by dumping its
// result cells (CI keeps them as an artifact), and perfbench writes its
// result line with the same writer. Both are flat — an object of
// scalars and arrays of flat objects — so this is an append-only writer
// with comma/indent bookkeeping, not a DOM: values are emitted in call
// order and the output is deterministic, which keeps bench JSON diffable
// across runs.
//
// Usage:
//
//   JsonWriter w;
//   w.begin_object();
//   w.key("bench").value("ablation_overlap");
//   w.key("cells").begin_array();
//   for (...) {
//     w.begin_object();
//     w.key("backend").value(name).key("seconds").value(seconds);
//     w.end_object();
//   }
//   w.end_array();
//   w.end_object();
//   GPSA_RETURN_IF_ERROR(write_bench_json(w));  // no-op if env unset
//
// Numbers: non-finite doubles (a cell that never ran divides 0/0) are
// emitted as 0 so the consumer sees valid JSON and fails on the *value*,
// not on a parse error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace gpsa {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the member key; the next value()/begin_*() call supplies it.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);  // escaped
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(std::int64_t{number}); }
  JsonWriter& value(unsigned number) { return value(std::uint64_t{number}); }
  JsonWriter& value(bool flag);

  /// The serialized document. Valid once every begin_* is closed.
  const std::string& str() const { return out_; }

 private:
  void prepare_slot();
  void newline_indent();
  void append_escaped(std::string_view text);

  std::string out_;
  std::vector<bool> container_has_items_;  // one flag per open container
  bool pending_key_ = false;
};

/// Writes `w.str()` to $GPSA_BENCH_JSON. Ok (and a no-op) when the
/// variable is unset — benches call this unconditionally.
Status write_bench_json(const JsonWriter& w);

}  // namespace gpsa
