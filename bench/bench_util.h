// Shared console utilities for the reproduction benchmarks: aligned tables,
// paper-vs-measured rows, and consistent run headers. Each bench binary
// regenerates one table or figure from §5 of "Log-Based Recovery for
// Middleware Servers" (SIGMOD 2007); absolute numbers differ from the
// paper's testbed, the *shape* (ordering, growth, crossovers) is the target.
// Machine-readable results: each bench binary also emits one line
//
//   BENCH_JSON {"bench":"...", ...}
//
// (built with obs::Json, the tree's one JSON writer, and printed by EmitJson
// below) so scripts — scripts/check_bench_json.py in CTest, plotting
// notebooks, CI trend trackers — can scrape structured numbers out of the
// human-readable report without parsing tables.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/sim_env.h"

namespace msplog {
namespace bench {

inline void Header(const std::string& title, const std::string& paper_ref) {
  printf("\n==============================================================\n");
  printf("%s\n", title.c_str());
  printf("reproduces: %s\n", paper_ref.c_str());
  printf("==============================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      printf("  ");
      for (size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        printf("%-*s  ", static_cast<int>(width[c]), cell.c_str());
      }
      printf("\n");
    };
    print_row(columns_);
    std::vector<std::string> sep;
    for (size_t c = 0; c < columns_.size(); ++c) {
      sep.push_back(std::string(width[c], '-'));
    }
    print_row(sep);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int prec = 2) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Fold event-tracer ring health into a BENCH_JSON body: the drop count
/// always, plus an explicit warning field (and a stderr note) when the ring
/// overflowed — a dropped-event trace is silently truncated and should not
/// be trusted as a complete causal record.
inline void AddTracerHealth(obs::Json* j, uint64_t dropped) {
  j->Add("tracer_dropped", dropped);
  if (dropped > 0) {
    j->Add("tracer_warning",
           "event tracer ring overflowed; trace dump is truncated");
    fprintf(stderr,
            "WARNING: event tracer dropped %llu events (ring overflow); "
            "trace dump is truncated\n",
            static_cast<unsigned long long>(dropped));
  }
}

/// True when this binary is instrumented by TSan/ASan: model time is
/// wall-clock derived, and instrumentation slows everything ~10-20x, so
/// timing metrics from such a build are not comparable to native baselines.
inline constexpr bool UnderSanitizer() { return SimEnvironment::kSanitized; }

/// Print the canonical machine-readable line for bench `name`. Every blob
/// carries `sanitized` so the compare_bench oracle can skip its wall-time
/// tolerance bands on instrumented builds (exact counters still compare).
inline void EmitJson(const std::string& name, const obs::Json& body) {
  obs::Json wrapped;
  wrapped.Add("bench", name);
  wrapped.Add("sanitized", UnderSanitizer());
  std::string inner = body.Str();
  // splice: {"bench":"..."} + body fields
  std::string head = wrapped.Str();
  head.pop_back();  // drop '}'
  if (inner.size() > 2) head += "," + inner.substr(1);
  else head += "}";
  printf("BENCH_JSON %s\n", head.c_str());
  fflush(stdout);
}

}  // namespace bench
}  // namespace msplog
