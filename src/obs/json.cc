#include "obs/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace msplog {
namespace obs {

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(&out, s);
  return out;
}

void AppendJsonValue(std::string* out, std::string_view s) {
  *out += '"';
  AppendEscaped(out, s);
  *out += '"';
}

void AppendJsonValue(std::string* out, const char* s) {
  AppendJsonValue(out, std::string_view(s));
}

void AppendJsonValue(std::string* out, bool v) { *out += v ? "true" : "false"; }

void AppendJsonValue(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  *out += std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendJsonValue(std::string* out, const Json& v) {
  *out += '{';
  *out += v.body_;
  *out += '}';
}

void AppendJsonValue(std::string* out, const JsonArray& v) {
  *out += '[';
  *out += v.body_;
  *out += ']';
}

void Json::Key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  AppendJsonValue(&body_, key);
  body_ += ':';
}

Json& Json::AddRaw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonArray& JsonArray::PushRaw(std::string_view json) {
  if (!body_.empty()) body_ += ',';
  body_ += json;
  return *this;
}

namespace {

/// A recursive-descent reader of one document. Each step returns false at
/// the first byte that breaks the grammar, leaving `at` there.
struct Reader {
  std::string_view s;
  size_t at = 0;

  void Ws() {
    while (at < s.size() &&
           (s[at] == ' ' || s[at] == '\t' || s[at] == '\n' || s[at] == '\r')) {
      ++at;
    }
  }
  bool Eat(std::string_view w) {
    if (s.substr(at, w.size()) != w) return false;
    at += w.size();
    return true;
  }
  /// Eat `w` after any whitespace: the separators between values.
  bool Token(std::string_view w) {
    Ws();
    return Eat(w);
  }
  /// Nothing but whitespace is left.
  bool End() {
    Ws();
    return at == s.size();
  }
  bool Digits() {
    const size_t from = at;
    while (at < s.size() && s[at] >= '0' && s[at] <= '9') ++at;
    return at > from;
  }

  bool Value(JsonValue* v, int depth) {
    using K = JsonValue::Kind;
    Ws();
    if (at >= s.size()) return false;
    const bool nest = depth < 256;  // containers nest at most 256 deep
    switch (s[at]) {
      case '{': v->kind = K::kObject; return nest && Object(v, depth + 1);
      case '[': v->kind = K::kArray; return nest && Array(v, depth + 1);
      case '"': v->kind = K::kString; return String(&v->text);
      case 't': v->kind = K::kBool; v->boolean = true; return Eat("true");
      case 'f': v->kind = K::kBool; return Eat("false");
      case 'n': return Eat("null");
      default: v->kind = K::kNumber; return Number(&v->text);
    }
  }

  bool Number(std::string* out) {
    const size_t from = at;
    Eat("-");
    if (!Digits() || (Eat(".") && !Digits())) return false;  // nan, inf too
    if (Eat("e") || Eat("E")) {
      if (!Eat("+")) Eat("-");
      if (!Digits()) return false;
    }
    out->assign(s.substr(from, at - from));
    return true;
  }

  bool String(std::string* out) {
    if (!Eat("\"")) return false;
    while (at < s.size() && static_cast<unsigned char>(s[at]) >= 0x20) {
      const char c = s[at++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at >= s.size()) return false;
      const char e = s[at++];
      const size_t k = std::string_view("\"\\/bfnrt").find(e);
      if (k != std::string_view::npos) {
        out->push_back("\"\\/\b\f\n\r\t"[k]);
      } else if (e != 'u' || !Unit(out)) {
        return false;
      }
    }
    return false;  // unterminated, or a raw control character
  }

  /// The four hex digits of a \u escape, appended as UTF-8.
  bool Unit(std::string* out) {
    uint32_t cp = 0;
    const char* hex = s.data() + at;
    if (s.size() - at < 4 ||
        std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
      return false;
    }
    at += 4;
    // UTF-8: one byte below 0x80, two below 0x800, else three.
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : 2;
    constexpr uint32_t kLead[] = {0x00, 0xc0, 0xe0};
    out->push_back(static_cast<char>(kLead[tail] | cp >> (6 * tail)));
    for (int k = tail - 1; k >= 0; --k) {
      out->push_back(static_cast<char>(0x80 | (cp >> (6 * k) & 0x3f)));
    }
    return true;
  }

  bool Object(JsonValue* v, int depth) {
    ++at;  // '{'
    if (Token("}")) return true;
    do {
      auto& [key, member] = v->members.emplace_back();
      Ws();
      if (!String(&key) || !Token(":") || !Value(&member, depth)) return false;
    } while (Token(","));
    return Token("}");
  }

  bool Array(JsonValue* v, int depth) {
    ++at;  // '['
    if (Token("]")) return true;
    do {
      if (!Value(&v->items.emplace_back(), depth)) return false;
    } while (Token(","));
    return Token("]");
  }
};

}  // namespace

const JsonValue* JsonValue::At(
    std::initializer_list<std::string_view> path) const {
  const JsonValue* v = this;
  for (std::string_view key : path) {
    auto it = std::find_if(v->members.begin(), v->members.end(),
                           [key](const auto& m) { return m.first == key; });
    if (it == v->members.end()) return nullptr;
    v = &it->second;
  }
  return v;
}

std::optional<uint64_t> JsonValue::Uint() const {
  uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (kind != Kind::kNumber || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return n;
}

std::optional<JsonValue> ParseJson(std::string_view text, size_t* error_at) {
  Reader r{text};
  JsonValue v;
  if (r.Value(&v, 0) && r.End()) return v;
  if (error_at) *error_at = r.at;
  return std::nullopt;
}

}  // namespace obs
}  // namespace msplog
