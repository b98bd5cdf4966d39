#include "util/config.hpp"

#include <limits>

namespace gpsa {

Result<Config> Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string_view token(argv[i]);
    if (token.rfind("--", 0) == 0) {
      GPSA_RETURN_IF_ERROR(config.set_entry(token.substr(2)));
    } else {
      config.positional_.emplace_back(token);
    }
  }
  return config;
}

Status Config::set_entry(std::string_view entry) {
  if (entry.empty()) {
    return invalid_argument("empty config entry");
  }
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos) {
    set(std::string(entry), "true");
    return Status::ok();
  }
  if (eq == 0) {
    return invalid_argument("config entry has empty key: '" +
                            std::string(entry) + "'");
  }
  set(std::string(entry.substr(0, eq)), std::string(entry.substr(eq + 1)));
  return Status::ok();
}

void Config::set(std::string key, std::string value) {
  entries_.insert_or_assign(std::move(key), std::move(value));
}

bool Config::contains(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::string Config::get_string(std::string_view key,
                               std::string default_value) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::move(default_value) : it->second;
}

template <typename T>
Result<T> Config::get_parsed(std::string_view key, T default_value,
                             KnobSpec rule) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return default_value;
  }
  const std::string flag = "--" + it->first;
  rule.name = flag.c_str();
  return parse_knob<T>(rule, it->second);
}

Result<std::uint64_t> Config::get_uint(std::string_view key,
                                       std::uint64_t default_value,
                                       std::uint64_t max) const {
  // A maximum below 2^53 converts exactly; the whole-type one reads as
  // "a non-negative integer".
  return get_parsed(key, default_value,
                    {"", KnobKind::kUnsigned, "", 0, static_cast<double>(max),
                     "", ""});
}

Result<double> Config::get_double(std::string_view key,
                                   double default_value) const {
  return get_parsed(key, default_value,
                    {"", KnobKind::kFloat, "",
                     std::numeric_limits<double>::lowest(),
                     std::numeric_limits<double>::max(), "", ""});
}

Result<bool> Config::get_bool(std::string_view key, bool default_value) const {
  return get_parsed(key, default_value,
                    {"", KnobKind::kBool, "", 0, 0, kKnobBool, ""});
}

}  // namespace gpsa
