// Delta (residual) PageRank — the delta-programming variant the worklist
// exists for (DESIGN.md §12).
//
// Push PageRank re-sends every vertex's full share every superstep, so
// the frontier never shrinks and the run only stops on the iteration
// budget. The delta formulation instead accumulates rank in place and
// sends only the *change* since the vertex last dispatched:
//   rank_0(v)  = (1-d)/N                      (the teleport term)
//   message    = d * delta(u) / out_degree(u)
//   rank(v)   += sum of received messages
// Expanding the recurrence, rank(v) converges to the power series
// (1-d)/N * sum_k (dM)^k — the same fixed point as classic PageRank — but
// a vertex only re-activates while its received mass still exceeds the
// epsilon, so the active set decays and the run quiesces on its own
// instead of exhausting a superstep budget. Mass below the epsilon is
// dropped with the deactivation, bounding the result's deviation from the
// exact fixed point by O(eps * supersteps) per vertex.
//
// The engine side: delta_messages() makes the dispatchers keep the
// last-sent plane and hand gen_msg delta(current, last_sent); `changed`
// gates re-activation on the epsilon (GPSA_DELTA_EPS).
#pragma once

#include <atomic>
#include <optional>

#include "core/program.hpp"

namespace gpsa {

/// Re-activation threshold resolution: an explicit value beats
/// GPSA_DELTA_EPS beats the 1e-7 default (warn + default on a bad env
/// value, mirroring GPSA_CSR_FORMAT).
float resolve_delta_eps(std::optional<float> requested);

class PageRankDeltaProgram final : public Program {
 public:
  /// `max_iterations` is a guard rail only — unlike push PageRank the
  /// delta program quiesces on its own once every residual drops below
  /// the epsilon.
  explicit PageRankDeltaProgram(std::uint64_t max_iterations = 100,
                                float damping = 0.85F,
                                std::optional<float> eps = std::nullopt)
      : max_iterations_(max_iterations),
        damping_(damping),
        eps_(resolve_delta_eps(eps)) {}

  std::string name() const override { return "pagerank_delta"; }

  InitialState init(VertexId /*v*/, VertexId num_vertices) const override {
    const float teleport =
        (1.0F - damping_) / static_cast<float>(num_vertices);
    if (teleport_.load() != teleport) {
      teleport_.store(teleport);  // concurrent jobs may share the program
    }
    // Rank starts at the teleport term (not 1/N): everything else arrives
    // as accumulated deltas. last_sent starts at 0, so the first dispatch
    // propagates exactly this seed.
    return {float_to_payload(teleport_.load()), true};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t out_degree) const override {
    // `value` is the residual (rank - last_sent), courtesy of delta().
    const float residual = payload_to_float(value);
    const float share =
        damping_ * residual /
        static_cast<float>(out_degree == 0 ? 1 : out_degree);
    return float_to_payload(share);
  }

  bool uniform_gen_msg() const override { return true; }

  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;  // rank accumulates in place; no per-superstep reset
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return float_to_payload(payload_to_float(accumulator) +
                            payload_to_float(message));
  }

  bool sum_fold() const override { return true; }

  bool changed(Payload before, Payload after) const override {
    // Contributions are non-negative, so the growth is the received mass;
    // below the epsilon the vertex stays inactive and the mass is dropped.
    return payload_to_float(after) - payload_to_float(before) > eps_;
  }

  std::uint64_t max_supersteps() const override { return max_iterations_; }

  bool delta_messages() const override { return true; }

  Payload delta(Payload current, Payload last_sent) const override {
    return float_to_payload(payload_to_float(current) -
                            payload_to_float(last_sent));
  }

  float epsilon() const { return eps_; }

 private:
  std::uint64_t max_iterations_;
  float damping_;
  float eps_;
  mutable std::atomic<float> teleport_{0.15F};
};

}  // namespace gpsa
