#include "harness/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "platform/file_util.hpp"
#include "util/check.hpp"
#include "util/knobs.hpp"

namespace gpsa {

void JsonWriter::newline_indent() {
  out_ += '\n';
  out_.append(2 * container_has_items_.size(), ' ');
}

void JsonWriter::prepare_slot() {
  // A keyed slot ("key": _) already placed its comma/indent with the key.
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (container_has_items_.empty()) {
    return;  // root value
  }
  if (container_has_items_.back()) {
    out_ += ',';
  }
  container_has_items_.back() = true;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  prepare_slot();
  out_ += '{';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  GPSA_CHECK(!container_has_items_.empty() && !pending_key_);
  const bool had_items = container_has_items_.back();
  container_has_items_.pop_back();
  if (had_items) {
    newline_indent();
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prepare_slot();
  out_ += '[';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  GPSA_CHECK(!container_has_items_.empty() && !pending_key_);
  const bool had_items = container_has_items_.back();
  container_has_items_.pop_back();
  if (had_items) {
    newline_indent();
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  GPSA_CHECK(!container_has_items_.empty() && !pending_key_);
  if (container_has_items_.back()) {
    out_ += ',';
  }
  container_has_items_.back() = true;
  newline_indent();
  append_escaped(name);
  out_ += ": ";
  pending_key_ = true;  // the next value/begin fills this slot directly
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  prepare_slot();
  append_escaped(text);
  return *this;
}

void JsonWriter::append_escaped(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::value(double number) {
  prepare_slot();
  if (!std::isfinite(number)) {
    number = 0.0;  // keep the document parseable; the gate fails on value
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", number);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  prepare_slot();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  prepare_slot();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  prepare_slot();
  out_ += flag ? "true" : "false";
  return *this;
}

Status write_bench_json(const JsonWriter& w) {
  const std::string path = knob_or_default<std::string>("GPSA_BENCH_JSON");
  if (path.empty()) {
    return Status::ok();
  }
  std::string doc = w.str();
  doc += '\n';
  GPSA_RETURN_IF_ERROR(write_file(path, doc.data(), doc.size()));
  std::printf("\nwrote %s\n", path.c_str());
  return Status::ok();
}

}  // namespace gpsa
