// Single-source shortest paths (Bellman-Ford style), an extension beyond
// the paper's three benchmarks exercising gen_msg's destination parameter:
// edge weights are derived deterministically from the endpoints
// (apps/weights.hpp) since the CSR stores none.
#pragma once

#include <algorithm>

#include "apps/weights.hpp"
#include "core/program.hpp"

namespace gpsa {

class SsspProgram final : public Program {
 public:
  explicit SsspProgram(VertexId source = 0) : source_(source) {}

  std::string name() const override { return "sssp"; }

  InitialState init(VertexId v, VertexId /*n*/) const override {
    if (v == source_) {
      return {0, true};
    }
    return {kPayloadInfinity, false};
  }

  Payload gen_msg(VertexId src, VertexId dst, Payload value,
                  std::uint32_t /*out_degree*/) const override {
    const std::uint64_t relaxed =
        static_cast<std::uint64_t>(value) + synthetic_edge_weight(src, dst);
    return relaxed >= kPayloadInfinity
               ? kPayloadInfinity
               : static_cast<Payload>(relaxed);
  }

  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return std::min(accumulator, message);
  }

  bool changed(Payload before, Payload after) const override {
    return after < before;
  }

  VertexId source() const { return source_; }

 private:
  VertexId source_;
};

}  // namespace gpsa
