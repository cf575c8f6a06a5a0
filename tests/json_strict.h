// Strict mini JSON parser for tests: every machine-readable dump must parse
// with NO leniency — no trailing garbage, no NaN/inf, no raw control
// characters or unknown escapes inside strings, balanced structure.
// Substring checks alone would never catch a malformed dump.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace msplog {
namespace json_strict {

inline size_t Value(const std::string& s, size_t i);

inline size_t Ws(const std::string& s, size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
  return i;
}

inline size_t String(const std::string& s, size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  ++i;
  while (i < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x20) return std::string::npos;  // raw control character
    if (c == '\\') {
      if (i + 1 >= s.size()) return std::string::npos;
      const char e = s[i + 1];
      if (e == 'u') {
        for (size_t k = 2; k < 6; ++k) {
          if (i + k >= s.size() ||
              !isxdigit(static_cast<unsigned char>(s[i + k]))) {
            return std::string::npos;
          }
        }
        i += 6;
      } else if (std::string("\"\\/bfnrt").find(e) != std::string::npos) {
        i += 2;
      } else {
        return std::string::npos;
      }
    } else if (c == '"') {
      return i + 1;
    } else {
      ++i;
    }
  }
  return std::string::npos;
}

inline size_t Number(const std::string& s, size_t i) {
  size_t start = i;
  if (i < s.size() && s[i] == '-') ++i;
  size_t digits = i;
  while (i < s.size() && isdigit(static_cast<unsigned char>(s[i]))) ++i;
  if (i == digits) return std::string::npos;  // rejects nan/inf too
  if (i < s.size() && s[i] == '.') {
    ++i;
    size_t frac = i;
    while (i < s.size() && isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == frac) return std::string::npos;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    size_t exp = i;
    while (i < s.size() && isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == exp) return std::string::npos;
  }
  return i > start ? i : std::string::npos;
}

inline size_t Object(const std::string& s, size_t i) {
  ++i;  // '{'
  i = Ws(s, i);
  if (i < s.size() && s[i] == '}') return i + 1;
  while (true) {
    i = String(s, Ws(s, i));
    if (i == std::string::npos) return std::string::npos;
    i = Ws(s, i);
    if (i >= s.size() || s[i] != ':') return std::string::npos;
    i = Value(s, i + 1);
    if (i == std::string::npos) return std::string::npos;
    i = Ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
    } else if (i < s.size() && s[i] == '}') {
      return i + 1;
    } else {
      return std::string::npos;
    }
  }
}

inline size_t Array(const std::string& s, size_t i) {
  ++i;  // '['
  i = Ws(s, i);
  if (i < s.size() && s[i] == ']') return i + 1;
  while (true) {
    i = Value(s, i);
    if (i == std::string::npos) return std::string::npos;
    i = Ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
    } else if (i < s.size() && s[i] == ']') {
      return i + 1;
    } else {
      return std::string::npos;
    }
  }
}

inline size_t Value(const std::string& s, size_t i) {
  i = Ws(s, i);
  if (i >= s.size()) return std::string::npos;
  switch (s[i]) {
    case '{': return Object(s, i);
    case '[': return Array(s, i);
    case '"': return String(s, i);
    case 't': return s.compare(i, 4, "true") == 0 ? i + 4 : std::string::npos;
    case 'f': return s.compare(i, 5, "false") == 0 ? i + 5 : std::string::npos;
    case 'n': return s.compare(i, 4, "null") == 0 ? i + 4 : std::string::npos;
    default:  return Number(s, i);
  }
}

}  // namespace json_strict

/// Success iff `s` is exactly one strict JSON document.
inline ::testing::AssertionResult JsonStrict(const std::string& s) {
  size_t end = json_strict::Value(s, 0);
  if (end == std::string::npos) {
    return ::testing::AssertionFailure() << "JSON parse error in: " << s;
  }
  end = json_strict::Ws(s, end);
  if (end != s.size()) {
    return ::testing::AssertionFailure()
           << "trailing garbage at offset " << end << ": " << s.substr(end);
  }
  return ::testing::AssertionSuccess();
}

/// The "seq" of every event in an EventTracer::DumpJson() array, in order.
inline std::vector<uint64_t> DumpedSeqs(const std::string& json) {
  std::vector<uint64_t> out;
  const std::string key = "\"seq\":";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    out.push_back(std::strtoull(json.c_str() + at + key.size(), nullptr, 10));
  }
  return out;
}

}  // namespace msplog
