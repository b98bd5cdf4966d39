// Shared helpers for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "graph/edge_list.hpp"
#include "storage/slot.hpp"

namespace gpsa::testing {

/// Sets (or, given nullptr, unsets) one variable for a scope, restoring
/// the previous setting after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
    }
    set(value);
  }
  ~ScopedEnv() { set(saved_.has_value() ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, value, 1);
    }
  }

  const char* name_;
  std::optional<std::string> saved_;
};

/// Compares integer payload vectors exactly, reporting the first diff.
inline void expect_payloads_equal(const std::vector<Payload>& actual,
                                  const std::vector<Payload>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << "vertex " << v;
  }
}

/// Compares float-payload vectors within a relative tolerance (fold order
/// differs across engines).
inline void expect_float_payloads_near(const std::vector<Payload>& actual,
                                       const std::vector<Payload>& expected,
                                       double rel_tol = 1e-4) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    const double a = payload_to_float(actual[v]);
    const double e = payload_to_float(expected[v]);
    const double scale = std::max({std::fabs(a), std::fabs(e), 1e-12});
    ASSERT_LE(std::fabs(a - e) / scale, rel_tol)
        << "vertex " << v << ": " << a << " vs " << e;
  }
}

/// Small fixed digraph used across suites:
///
///   0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 4, 5 isolated
inline EdgeList diamond_graph() {
  EdgeList g;
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.ensure_vertices(6);
  return g;
}

/// A sum fold whose values leave the exact fold's range (program.hpp):
/// every run of it must fail with a Status.
class OversizedSumProgram final : public Program {
 public:
  std::string name() const override { return "oversized-sum"; }
  InitialState init(VertexId /*v*/, VertexId /*n*/) const override {
    return {float_to_payload(100.0F), true};
  }
  Payload gen_msg(VertexId /*s*/, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    return float_to_payload(payload_to_float(accumulator) +
                            payload_to_float(message));
  }
  bool sum_fold() const override { return true; }
};

}  // namespace gpsa::testing
