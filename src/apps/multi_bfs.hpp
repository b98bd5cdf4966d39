// Multi-source reachability in one pass.
//
// Payloads are 31-bit reachability bitmasks: bit i of vertex v's value is
// set iff v is reachable from source i. Messages carry the sender's mask,
// the fold is bitwise OR (commutative, associative, idempotent — ideal
// for the message-driven model). One run answers "which of up to 31
// landmark pages reach v?" — a workload web-graph systems use for
// landmark labeling.
#pragma once

#include <vector>

#include "core/program.hpp"
#include "util/check.hpp"

namespace gpsa {

class MultiSourceReachabilityProgram final : public Program {
 public:
  static constexpr std::size_t kMaxSources = 31;

  explicit MultiSourceReachabilityProgram(std::vector<VertexId> sources)
      : sources_(std::move(sources)) {
    GPSA_CHECK(!sources_.empty() && sources_.size() <= kMaxSources);
  }

  std::string name() const override { return "multi-bfs"; }

  InitialState init(VertexId v, VertexId /*n*/) const override {
    Payload mask = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i] == v) {
        mask |= Payload{1} << i;
      }
    }
    return {mask, mask != 0};
  }

  Payload gen_msg(VertexId /*src*/, VertexId /*dst*/, Payload value,
                  std::uint32_t /*out_degree*/) const override {
    return value;
  }

  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }

  Payload compute(Payload accumulator, Payload message) const override {
    return accumulator | message;
  }

  bool changed(Payload before, Payload after) const override {
    return after != before;  // OR only grows
  }

  const std::vector<VertexId>& sources() const { return sources_; }

 private:
  std::vector<VertexId> sources_;
};

}  // namespace gpsa
