// PageRank as a GPSA vertex program (one of the paper's three benchmark
// algorithms).
//
// Push formulation matching the engine's message-driven semantics:
//   rank_0(v)   = 1 / N
//   rank_s+1(v) = (1-d)/N + d * sum over active in-neighbors u of
//                 rank_s(u) / out_degree(u)
// with damping d = 0.85. The damping and degree division live in
// gen_msg — "in the PageRank algorithm, the value of a message is related
// to both the out-degree and the vertex value" (§IV.E) — which is why the
// Fig. 4c CSR variant inlines the degree.
//
// Vertices that receive no messages in a superstep keep their rank and go
// inactive (selective-scheduling semantics shared by all engines here).
#pragma once

#include <atomic>

#include "core/program.hpp"

namespace gpsa {

class PageRankProgram final : public Program {
 public:
  /// `iterations` bounds the run (PageRank never quiesces on its own);
  /// the paper's timing runs use 5.
  explicit PageRankProgram(std::uint64_t iterations = 20,
                           float damping = 0.85F)
      : iterations_(iterations), damping_(damping) {}

  std::string name() const override { return "pagerank"; }

  InitialState init(VertexId /*v*/, VertexId num_vertices) const override {
    // Every engine calls init() for all vertices before superstep 0, so
    // caching the teleport term here keeps the program self-configuring.
    const float teleport =
        (1.0F - damping_) / static_cast<float>(num_vertices);
    if (teleport_.load() != teleport) {
      teleport_.store(teleport);  // concurrent jobs may share the program
    }
    return {float_to_payload(1.0F / static_cast<float>(num_vertices)), true};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t out_degree) const override {
    const float rank = payload_to_float(value);
    const float share =
        damping_ * rank / static_cast<float>(out_degree == 0 ? 1 : out_degree);
    return float_to_payload(share);
  }

  bool uniform_gen_msg() const override { return true; }

  Payload first_update(VertexId /*v*/, Payload /*stored*/) const override {
    // Teleport term; the old rank does not carry over in push PageRank.
    return float_to_payload(teleport_.load());
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return float_to_payload(payload_to_float(accumulator) +
                            payload_to_float(message));
  }

  bool sum_fold() const override { return true; }

  bool changed(Payload /*before*/, Payload /*after*/) const override {
    return true;  // any received contribution re-activates the vertex
  }

  std::uint64_t max_supersteps() const override { return iterations_; }

 private:
  std::uint64_t iterations_;
  float damping_;
  mutable std::atomic<float> teleport_{0.15F};
};

}  // namespace gpsa
