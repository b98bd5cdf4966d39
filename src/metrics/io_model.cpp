#include "metrics/io_model.hpp"

#include "util/knobs.hpp"

namespace gpsa {

double model_disk_bandwidth_bytes_per_sec() {
  static const double bandwidth =
      knob_or_default<double>("GPSA_MODEL_DISK_MBPS") * 1024.0 * 1024.0;
  return bandwidth;
}

std::uint64_t model_ram_bytes() {
  static const auto bytes = static_cast<std::uint64_t>(
      knob_or_default<double>("GPSA_MODEL_RAM_MB") * 1024.0 * 1024.0);
  return bytes;
}

double modeled_out_of_core_seconds(double measured_seconds,
                                   const IoStats& io) {
  const double bandwidth = model_disk_bandwidth_bytes_per_sec();
  if (bandwidth <= 0.0) {
    return measured_seconds;
  }
  return measured_seconds + static_cast<double>(io.total()) / bandwidth;
}

double modeled_out_of_core_seconds(double measured_seconds, const IoStats& io,
                                   std::uint64_t working_set_bytes) {
  if (working_set_bytes <= model_ram_bytes()) {
    return measured_seconds;  // in-memory regime: page cache absorbs all
  }
  return modeled_out_of_core_seconds(measured_seconds, io);
}

}  // namespace gpsa
