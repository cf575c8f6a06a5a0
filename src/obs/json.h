// Json / JsonArray — the one JSON writer of the tree.
//
// Every machine-readable document msplog emits is built with these two
// builders: statusz, flight bundles, recovery timelines, outage and
// post-mortem reports, the offline inspector's report, tail blame, session
// telemetry, the metrics and tracer dumps and the benches' BENCH_JSON
// lines. Escaping and number formatting therefore live in one place:
//
//   * output is compact (no whitespace) and keeps insertion order;
//   * strings go through JsonEscape (control characters become \u00XX);
//   * integers print exactly; doubles print in the shortest form that
//     round-trips (std::to_chars), and NaN or +-inf print as null, so no
//     document carries a token a strict parser rejects.
//
// The writer has no options. AddRaw/PushRaw splice a value that is already
// JSON — typically another document's ToJson() — without re-parsing it.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace msplog {
namespace obs {

/// JSON string-body escaping (no surrounding quotes).
std::string JsonEscape(const std::string& s);

class Json;
class JsonArray;

/// Append one JSON value to `out` in the writer's format.
void AppendJsonValue(std::string* out, std::string_view s);
void AppendJsonValue(std::string* out, const char* s);
void AppendJsonValue(std::string* out, bool v);
void AppendJsonValue(std::string* out, double v);
void AppendJsonValue(std::string* out, const Json& v);
void AppendJsonValue(std::string* out, const JsonArray& v);
/// Integers (bool and char excluded: a char is text, not a number).
template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void AppendJsonValue(std::string* out, T v) {
  char buf[24];
  *out += std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Insertion-ordered JSON object builder.
class Json {
 public:
  template <typename T>
  Json& Add(std::string_view key, const T& value) {
    Key(key);
    AppendJsonValue(&body_, value);
    return *this;
  }
  /// `json` must already be one valid JSON value.
  Json& AddRaw(std::string_view key, std::string_view json);

  std::string Str() const { return "{" + body_ + "}"; }

 private:
  friend void AppendJsonValue(std::string* out, const Json& v);
  void Key(std::string_view key);

  std::string body_;  ///< members, comma-separated, without the braces
};

/// JSON array builder.
class JsonArray {
 public:
  template <typename T>
  JsonArray& Push(const T& value) {
    if (!body_.empty()) body_ += ',';
    AppendJsonValue(&body_, value);
    return *this;
  }
  /// `json` must already be one valid JSON value.
  JsonArray& PushRaw(std::string_view json);

  std::string Str() const { return "[" + body_ + "]"; }

 private:
  friend void AppendJsonValue(std::string* out, const JsonArray& v);

  std::string body_;  ///< elements, comma-separated, without the brackets
};

}  // namespace obs
}  // namespace msplog
