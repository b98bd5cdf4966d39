#include "util/knobs.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace gpsa {
namespace {

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  return buf;
}

/// What a row accepts (kText accepts anything and never needs this).
std::string range_of(const KnobSpec& spec) {
  if (!spec.choices.empty()) {
    return std::string(spec.choices);
  }
  // Config's flag rules (util/config.cpp) span the whole type.
  if (spec.kind == KnobKind::kUnsigned && spec.max >= 0x1p64) {
    return "a non-negative integer";
  }
  if (spec.kind == KnobKind::kFloat &&
      spec.max >= std::numeric_limits<double>::max()) {
    return "a number";
  }
  return (spec.kind == KnobKind::kFloat ? "a number in [" : "an integer in [") +
         number(spec.min) + ", " + number(spec.max) + "]";
}

bool is_choice(std::string_view choices, std::string_view text) {
  while (!choices.empty()) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == text) {
      return true;
    }
    choices = bar == std::string_view::npos ? "" : choices.substr(bar + 1);
  }
  return false;
}

}  // namespace

template <typename T>
Result<T> parse_knob(const KnobSpec& spec, std::string_view text) {
  const char* const end = text.data() + text.size();
  T value{};
  bool ok = false;
  if constexpr (std::is_same_v<T, std::uint64_t> ||
                std::is_same_v<T, double>) {
    GPSA_CHECK(spec.kind == (std::is_same_v<T, double> ? KnobKind::kFloat
                                                       : KnobKind::kUnsigned));
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // NaN fails both compares.
    ok = ec == std::errc() && ptr == end &&
         static_cast<double>(value) >= spec.min &&
         static_cast<double>(value) <= spec.max;
  } else if constexpr (std::is_same_v<T, bool>) {
    GPSA_CHECK(spec.kind == KnobKind::kBool);
    value = is_choice("1|true|on|yes", text);
    ok = value || is_choice("0|false|off|no", text);
  } else {
    GPSA_CHECK(spec.kind == KnobKind::kEnum || spec.kind == KnobKind::kText);
    value = std::string(text);
    ok = spec.kind == KnobKind::kText || is_choice(spec.choices, text);
  }
  if (!ok) {
    return invalid_argument(std::string(spec.name) + "='" +
                            std::string(text) + "': expected " +
                            range_of(spec));
  }
  return value;
}

namespace {

/// The variable's value, or nullptr when unset or empty.
const char* env_text(KnobName which) {
  GPSA_CHECK(which.row < std::size(kKnobTable));
  const char* raw = std::getenv(kKnobTable[which.row].name);
  return raw == nullptr || *raw == '\0' ? nullptr : raw;
}

}  // namespace

template <typename T>
Result<T> knob(KnobName which) {
  const char* raw = env_text(which);
  const KnobSpec& spec = kKnobTable[which.row];
  return parse_knob<T>(spec, raw == nullptr ? spec.fallback : raw);
}

template <typename T>
T knob_or_default(KnobName which) {
  Result<T> value = knob<T>(which);
  if (value.is_ok()) {
    return std::move(value).value();
  }
  const KnobSpec& spec = kKnobTable[which.row];
  GPSA_LOG(Warn) << value.status().to_string() << "; using the default '"
                 << spec.fallback << "'";
  return parse_knob<T>(spec, spec.fallback).value();
}

template Result<std::uint64_t> parse_knob<std::uint64_t>(const KnobSpec&,
                                                         std::string_view);
template Result<double> parse_knob<double>(const KnobSpec&, std::string_view);
template Result<bool> parse_knob<bool>(const KnobSpec&, std::string_view);
template Result<std::string> parse_knob<std::string>(const KnobSpec&,
                                                     std::string_view);
template Result<std::uint64_t> knob<std::uint64_t>(KnobName);
template Result<double> knob<double>(KnobName);
template Result<bool> knob<bool>(KnobName);
template Result<std::string> knob<std::string>(KnobName);
template std::uint64_t knob_or_default<std::uint64_t>(KnobName);
template double knob_or_default<double>(KnobName);
template std::string knob_or_default<std::string>(KnobName);

}  // namespace gpsa
