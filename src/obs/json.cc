#include "obs/json.h"

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

}  // namespace obs
}  // namespace msplog
