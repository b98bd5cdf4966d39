// Execution-mode name (DESIGN.md §12).
//
// Every executor has one dispatch loop: dispatchers iterate the set bits
// of a dense active-vertex bitmap (storage/active_bitmap.hpp) and jump
// the entry cursor straight to each active record, O(active) per
// superstep. A set bit is exactly a clear stale flag, so the dispatched
// set is the one the paper's stale-flag scan (Algorithm 2) visits.
//
// ExecMode has that one value. It stays as a type so run reports
// (RunResult::exec) keep naming the mode they ran under.
#pragma once

#include <optional>

namespace gpsa {

enum class ExecMode {
  kWorklist,  // active-bitmap iteration (DESIGN.md §12)
};

const char* exec_mode_name(ExecMode mode);

/// Returns the mode a run uses: always kWorklist.
ExecMode resolve_exec_mode(std::optional<ExecMode> requested);

}  // namespace gpsa
