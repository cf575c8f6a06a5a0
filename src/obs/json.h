// Json / JsonArray — the one JSON writer of the tree — and ParseJson, its
// one reader.
//
// Every machine-readable document msplog emits is built with these two
// builders: statusz, flight bundles, recovery timelines, outage reports,
// the offline inspector's report, tail blame, the tracer dumps and the
// benches' BENCH_JSON lines. Escaping and number formatting therefore live
// in one place:
//
//   * output is compact (no whitespace) and keeps insertion order;
//   * strings go through JsonEscape (control characters become \u00XX);
//   * integers print exactly; doubles print in the shortest form that
//     round-trips (std::to_chars), and NaN or +-inf print as null, so no
//     document carries a token a strict parser rejects.
//
// The writer has no options. AddRaw/PushRaw splice a value that is already
// JSON — typically another document's ToJson() — without re-parsing it.
//
// ParseJson reads what the writer writes: msplog_inspect reads flight
// bundles and outage reports with it, and the tests every dump.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// One node of a parsed document. A number keeps its literal, so an
/// integer reads back exactly at any width.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< a string's decoded bytes, or a number's literal
  std::vector<JsonValue> items;  ///< array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< in order

  /// The value at `path`, each key a member of the previous object (the
  /// first of that name); null when a key is missing.
  const JsonValue* At(std::initializer_list<std::string_view> path) const;
  /// A number written as plain digits, read exactly; nullopt otherwise.
  std::optional<uint64_t> Uint() const;
};

/// Parse exactly one document, strictly: numbers are
/// `-?digits(.digits)?([eE][+-]?digits)?` (no NaN or inf); strings hold no
/// raw control character and only the escapes `\" \\ \/ \b \f \n \r \t
/// \uXXXX`, each \u unit decoded to UTF-8 on its own; no trailing comma or
/// byte; at most 256 levels of nesting.
/// nullopt on any malformation; `error_at` then receives its byte offset.
std::optional<JsonValue> ParseJson(std::string_view text,
                                   size_t* error_at = nullptr);

}  // namespace obs
}  // namespace msplog
