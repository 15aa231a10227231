// The repo's one JSON layout: string escaping plus JsonWriter, which
// every emitter (orchestrator report, metrics registry, Chrome trace,
// chaos plan, BENCH_*.json rows) builds its document with, so separators
// and number formats are stated once and cannot drift apart.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace sgxmig {

/// Appends `value` to `out` as a JSON string literal (quotes included),
/// escaping quotes, backslashes, and control characters.
inline void append_json_string(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline std::string json_string(std::string_view value) {
  std::string out;
  append_json_string(out, value);
  return out;
}

/// Appends one JSON document to a string: ", " between elements, ": "
/// after keys, no other whitespace.  Each value call writes the element
/// separator itself, so callers never track a first element.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Starts an object member; the next call writes its value.
  JsonWriter& key(std::string_view name) {
    separate();
    append_json_string(out_, name);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& string(std::string_view value) {
    separate();
    append_json_string(out_, value);
    return *this;
  }

  template <typename Int>
    requires std::is_integral_v<Int> && (!std::is_same_v<Int, bool>)
  JsonWriter& integer(Int value) {
    separate();
    if constexpr (std::is_signed_v<Int>) {
      out_ += std::to_string(static_cast<long long>(value));
    } else {
      out_ += std::to_string(static_cast<unsigned long long>(value));
    }
    return *this;
  }

  /// Fixed notation with `precision` digits after the point ("%.*f").
  JsonWriter& number(double value, int precision) {
    separate();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    out_ += buf;
    return *this;
  }

  JsonWriter& boolean(bool value) {
    separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  /// Writes `json`, an already rendered value, verbatim.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    empty_ = true;
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    empty_ = false;
    return *this;
  }
  /// A member's value follows its key directly; any other element
  /// follows the previous one in its container after ", ".
  void separate() {
    if (after_key_) {
      after_key_ = false;
    } else if (!empty_) {
      out_ += ", ";
    }
    empty_ = false;
  }

  std::string out_;
  bool empty_ = true;  // nothing written yet in the innermost container
  bool after_key_ = false;
};

}  // namespace sgxmig
