// Flat key=value configuration used by example and benchmark binaries.
//
// Accepts `--key=value` / `--flag` command-line tokens and `key=value`
// strings. Typed getters return the supplied default when the key is
// absent and read a present value by the environment knobs' rule
// (util/knobs.hpp, parse_knob): the whole text must spell the type, or
// the getter returns an InvalidArgument naming the flag and the value.
// Unknown keys are preserved so callers can validate or forward them.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/knobs.hpp"
#include "util/status.hpp"

namespace gpsa {

class Config {
 public:
  Config() = default;

  /// Parses argv-style tokens. Tokens that do not start with "--" are
  /// collected as positional arguments.
  static Result<Config> from_args(int argc, const char* const* argv);

  /// Parses a single "key=value" entry ("key" alone means "key=true").
  Status set_entry(std::string_view entry);

  void set(std::string key, std::string value);

  bool contains(std::string_view key) const;

  std::string get_string(std::string_view key, std::string default_value) const;
  /// A present value above `max` (inclusive) is an InvalidArgument, so a
  /// caller narrowing to a smaller type passes that type's maximum.
  Result<std::uint64_t> get_uint(
      std::string_view key, std::uint64_t default_value,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  Result<double> get_double(std::string_view key, double default_value) const;
  /// 1/0, true/false, on/off, yes/no; a bare `--flag` reads as true.
  Result<bool> get_bool(std::string_view key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }

 private:
  template <typename T>
  Result<T> get_parsed(std::string_view key, T default_value,
                       KnobSpec rule) const;

  std::map<std::string, std::string, std::less<>> entries_;
  std::vector<std::string> positional_;
};

}  // namespace gpsa
