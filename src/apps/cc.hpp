// Connected components via min-label propagation (paper benchmark #2).
//
// Every vertex starts with its own id as the label and active; labels
// propagate along edges and fold with min until quiescence. On a directed
// input this yields "min label reachable via directed paths"; for the
// paper's connected-components semantics (undirected connectivity) the
// harness symmetrizes the edge list first — the same treatment GraphChi's
// and X-Stream's CC implementations give directed inputs.
#pragma once

#include <algorithm>

#include "core/program.hpp"

namespace gpsa {

class ConnectedComponentsProgram final : public Program {
 public:
  std::string name() const override { return "cc"; }

  InitialState init(VertexId v, VertexId /*n*/) const override {
    return {v, true};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t /*out_degree*/) const override {
    return value;
  }

  bool uniform_gen_msg() const override { return true; }

  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return std::min(accumulator, message);
  }

  bool changed(Payload before, Payload after) const override {
    return after < before;
  }
};

}  // namespace gpsa
