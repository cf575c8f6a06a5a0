// msplog_perfbench — runs one benchmark workload and prints its result.
//
//   msplog_perfbench --workload paper_1c|saturate|restart --seed N
//                    --seconds S --trace 0|1 [--spans-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed correctness check exits 1 with "correct": false
// and no metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: msplog_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--spans-out") {
      args.spans_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0) {
    return Usage();
  }

  perfbench::RunOutcome r = perfbench::RunWorkload(args);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (!r.correct) {
    std::fprintf(stderr, "correctness check failed: %s\n",
                 r.why_incorrect.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? r.metrics.ToJson().c_str() : "{}");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
