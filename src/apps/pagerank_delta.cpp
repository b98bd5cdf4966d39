#include "apps/pagerank_delta.hpp"

#include "util/knobs.hpp"

namespace gpsa {

float resolve_delta_eps(std::optional<float> requested) {
  if (requested.has_value()) {
    return *requested;
  }
  return static_cast<float>(knob_or_default<double>("GPSA_DELTA_EPS"));
}

}  // namespace gpsa
