// In-degree counting — the simplest possible vertex program, useful as a
// one-superstep engine exercise and a building block (PageRank dangling
// handling, degree-ordered layouts).
//
// Every vertex sends 1 along each out-edge in superstep 0; receivers sum.
// first_update resets the accumulator to zero (the stored init value is
// not carried over), so the final payload of v is exactly in-degree(v).
#pragma once

#include "core/program.hpp"

namespace gpsa {

class InDegreeProgram final : public Program {
 public:
  std::string name() const override { return "in-degree"; }

  InitialState init(VertexId /*v*/, VertexId /*n*/) const override {
    return {0, true};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload /*value*/,
                  std::uint32_t /*out_degree*/) const override {
    return 1;
  }

  Payload first_update(VertexId /*v*/, Payload /*stored*/) const override {
    return 0;  // fresh counter
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return accumulator + message;
  }

  bool changed(Payload /*before*/, Payload /*after*/) const override {
    return true;
  }

  std::uint64_t max_supersteps() const override { return 1; }
};

}  // namespace gpsa
