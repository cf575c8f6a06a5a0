// Test helpers over the one JSON reader (obs::ParseJson, src/obs/json.h):
// every machine-readable dump must parse with no leniency, and the numbers
// the tests read come from the parsed tree, not from substring searches.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace msplog {

/// Success iff `s` is exactly one strict JSON document.
inline ::testing::AssertionResult JsonStrict(const std::string& s) {
  size_t at = 0;
  if (obs::ParseJson(s, &at)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "JSON parse error at offset " << at << ": " << s;
}

/// The "seq" of every event in an EventTracer::DumpJson() array, in order.
inline std::vector<uint64_t> DumpedSeqs(const std::string& json) {
  std::vector<uint64_t> out;
  const auto doc = obs::ParseJson(json);
  if (!doc) return out;
  for (const obs::JsonValue& event : doc->items) {
    const obs::JsonValue* seq = event.At({"seq"});
    if (seq && seq->Uint()) out.push_back(*seq->Uint());
  }
  return out;
}

/// The unsigned integer at `path`, each key a member of the previous
/// object: {"flush", "legs_requested"} reads statusz's
/// flush.legs_requested. Max when the document does not parse or the path
/// does not lead to one, which no count reaches.
inline uint64_t UintAt(const std::string& json,
                       std::initializer_list<std::string_view> path) {
  const auto doc = obs::ParseJson(json);
  const obs::JsonValue* v = doc ? doc->At(path) : nullptr;
  return v && v->Uint() ? *v->Uint()
                        : std::numeric_limits<uint64_t>::max();
}

}  // namespace msplog
