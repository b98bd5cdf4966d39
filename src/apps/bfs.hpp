// Breadth-first search as a GPSA vertex program (paper benchmark #3).
//
// Payloads are levels; kPayloadInfinity marks "unreached". Only the root
// starts active; a vertex activates when a message improves its level, so
// the frontier expands exactly one hop per superstep and the run quiesces
// when no message improves anything — the selective-scheduling behaviour
// the paper contrasts against X-Stream's every-edge streaming.
#pragma once

#include <algorithm>

#include "core/program.hpp"

namespace gpsa {

class BfsProgram final : public Program {
 public:
  explicit BfsProgram(VertexId root = 0) : root_(root) {}

  std::string name() const override { return "bfs"; }

  InitialState init(VertexId v, VertexId /*n*/) const override {
    if (v == root_) {
      return {0, true};
    }
    return {kPayloadInfinity, false};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t /*out_degree*/) const override {
    // Saturate so INF never wraps (an inactive INF vertex is never
    // dispatched, but saturation keeps the hook total anyway).
    return value >= kPayloadInfinity - 1 ? kPayloadInfinity : value + 1;
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

  VertexId root() const { return root_; }

 private:
  VertexId root_;
};

}  // namespace gpsa
