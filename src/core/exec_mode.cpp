#include "core/exec_mode.hpp"

namespace gpsa {

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kWorklist:
      return "worklist";
  }
  return "unknown";
}

ExecMode resolve_exec_mode(std::optional<ExecMode> requested) {
  return requested.value_or(ExecMode::kWorklist);
}

}  // namespace gpsa
