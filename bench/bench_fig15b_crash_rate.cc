// E4 — Figure 15(b) (§5.4): throughput versus crash rate for locally
// optimistic and pessimistic logging, session checkpoint threshold fixed.
//
// The paper injects one MSP2 crash per N end-client requests (N = 2000,
// 1500, 1000 over 20K requests). We run a 1:10-scaled experiment (N = 200,
// 150, 100 over 1200 requests; threshold 96 KB ≈ 1 MB / 10) so recovery
// work per crash is proportionally identical.
//
// Paper shape: LoOptimistic above Pessimistic at every rate; throughput
// decreases as crashes become more frequent; LoOptimistic declines slightly
// faster because crashes additionally orphan SE1 at MSP1 (§5.4).
#include <cstdio>

#include "bench_util.h"
#include "harness/paper_workload.h"

namespace msplog {
namespace {

constexpr double kTimeScale = 0.05;
constexpr int kRequests = 1200;
constexpr uint64_t kThreshold = 96ull << 10;

double MeasureThroughput(PaperConfig config, int crash_every,
                         uint64_t* crashes, obs::OutageReport* outage) {
  PaperWorkloadOptions opts;
  opts.config = config;
  opts.time_scale = kTimeScale;
  opts.session_checkpoint_threshold_bytes = kThreshold;
  PaperWorkload w(opts);
  if (!w.Start().ok()) return -1;
  RunResult r = w.RunSingleClient(kRequests, crash_every);
  *crashes = w.crashes_injected();
  // The injected crashes hit MSP2; its outage report (from the last
  // crash/recovery cycle) is the observatory's view of the damage. Captured
  // before Shutdown: shutdown is a clean stop, not a crash, and must not
  // perturb the report.
  *outage = w.msp2()->LastRecoveryTimeline().Outage();
  w.Shutdown();
  return r.throughput_rps;
}

void Run() {
  bench::Header("bench_fig15b_crash_rate",
                "Fig. 15(b) — throughput (req/s) vs crash rate, "
                "LoOptimistic vs Pessimistic (1:10-scaled rates)");

  struct Rate {
    const char* label;
    int crash_every;
  };
  const Rate rates[] = {
      {"0", 0}, {"1/2000", 200}, {"1/1500", 150}, {"1/1000", 100}};

  bench::Table table({"crash rate", "LoOptimistic", "Pessimistic",
                      "crashes(Lo)", "crashes(Pe)"});
  double lo[4], pe[4];
  for (int i = 0; i < 4; ++i) {
    uint64_t clo = 0, cpe = 0;
    obs::OutageReport olo, ope;
    lo[i] = MeasureThroughput(PaperConfig::kLoOptimistic,
                              rates[i].crash_every, &clo, &olo);
    pe[i] = MeasureThroughput(PaperConfig::kPessimistic,
                              rates[i].crash_every, &cpe, &ope);
    table.AddRow({rates[i].label, bench::Fmt(lo[i], 1), bench::Fmt(pe[i], 1),
                  std::to_string(clo), std::to_string(cpe)});
    struct Side {
      const char* config;
      double rps;
      uint64_t crashes;
      const obs::OutageReport* outage;
    };
    const Side sides[] = {{"LoOptimistic", lo[i], clo, &olo},
                          {"Pessimistic", pe[i], cpe, &ope}};
    for (const Side& s : sides) {
      obs::Json j;
      j.Add("config", s.config)
          .Add("rate", rates[i].label)
          .Add("crash_every", rates[i].crash_every)
          .Add("throughput_rps", s.rps)
          .Add("crashes", s.crashes)
          .AddRaw("outage_report", s.outage->ToJson());
      bench::EmitJson("fig15b_crash_rate", j);
    }
  }
  table.Print();

  printf("\nshape checks:\n");
  bool lo_above = true, lo_declines = true, pe_declines = true;
  for (int i = 0; i < 4; ++i) lo_above &= lo[i] > pe[i];
  lo_declines = lo[3] < lo[0];
  pe_declines = pe[3] < pe[0];
  printf("  [%s] LoOptimistic above Pessimistic at every crash rate\n",
         lo_above ? "PASS" : "FAIL");
  printf("  [%s] LoOptimistic throughput declines with crash rate\n",
         lo_declines ? "PASS" : "FAIL");
  printf("  [%s] Pessimistic throughput declines with crash rate\n",
         pe_declines ? "PASS" : "FAIL");
  double lo_drop = (lo[0] - lo[3]) / lo[0];
  double pe_drop = (pe[0] - pe[3]) / pe[0];
  printf("  decline at 1/1000: LoOptimistic %.1f%%, Pessimistic %.1f%% "
         "(paper: LoOptimistic declines a bit more — orphan recovery)\n",
         lo_drop * 100, pe_drop * 100);
}

}  // namespace
}  // namespace msplog

int main() {
  msplog::Run();
  return 0;
}
