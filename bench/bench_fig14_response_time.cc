// E1 + E2 — Figure 14 (§5.2): average response time of the five system
// configurations, and response time versus the number of calls to
// ServiceMethod2 inside ServiceMethod1.
//
// Paper reference values (ms, m = 1):
//   NoLog 8.697 < StateServer 16.658 < LoOptimistic 24.746
//   < Pessimistic 35.227 < Psession 48.617
// Expected shape: same ordering; Pessimistic grows fastest with m (two more
// flushes per extra call), LoOptimistic stays at one distributed flush, and
// StateServer closes in on LoOptimistic near m = 4.
//
// Besides the table, every measurement emits a BENCH_JSON line carrying the
// p50/p90/p99 response-time quantiles and the server-side queue-wait /
// execute / flush-wait histogram breakdowns (delta over the measured run).
// `--quick` runs a single cheap measurement (LoOptimistic, m = 1) — used by
// scripts/check_bench_json.py in CTest to validate the JSON schema.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "harness/paper_workload.h"
#include "obs/blame.h"
#include "obs/session_stats.h"

namespace msplog {
namespace {

constexpr int kRequests = 250;

struct Measurement {
  RunResult r;
  obs::Histogram::Snapshot queue_wait;
  obs::Histogram::Snapshot execute;
  obs::Histogram::Snapshot flush_wait;
  uint64_t tracer_dropped = 0;
  std::string telemetry_json = "[]";  ///< per-session SessionStats, both MSPs
  std::string blame_json = "{}";      ///< p99 tail-latency attribution
  // Populated only when the background scraper ran during the measurement.
  uint64_t scrape_samples = 0;
  std::string prom_dump;
  std::string scrape_json;
  // Populated by MeasureScraperOverhead only.
  double avg_ms_scraper_off = 0;
  double overhead_pct = 0;
};

Measurement Measure(PaperConfig config, int calls_per_request,
                    double time_scale, int requests, bool scrape = false) {
  PaperWorkloadOptions opts;
  opts.config = config;
  opts.time_scale = time_scale;
  opts.calls_per_request = calls_per_request;
  PaperWorkload w(opts);
  Measurement out;
  if (!w.Start().ok()) {
    out.r.avg_response_ms = -1;
    return out;
  }
  if (scrape) {
    // Default period: the overhead acceptance criterion is measured against
    // exactly this configuration.
    w.env()->scraper().WatchAllRegistered();
    w.msp1()->RegisterTelemetryProbes(&w.env()->scraper());
    w.msp2()->RegisterTelemetryProbes(&w.env()->scraper());
    w.env()->scraper().Start();
  }
  // Warm-up request (session materialization) excluded from the average.
  RunResult warm = w.RunSingleClient(5);
  (void)warm;
  obs::MetricsRegistry& m = w.env()->metrics();
  obs::Histogram::Snapshot q0 = m.GetHistogram("msp.queue_wait_ms")->Snap();
  obs::Histogram::Snapshot e0 = m.GetHistogram("msp.execute_ms")->Snap();
  obs::Histogram::Snapshot f0 = m.GetHistogram("msp.flush_wait_ms")->Snap();
  out.r = w.RunSingleClient(requests);
  out.queue_wait = m.GetHistogram("msp.queue_wait_ms")->Snap().Delta(q0);
  out.execute = m.GetHistogram("msp.execute_ms")->Snap().Delta(e0);
  out.flush_wait = m.GetHistogram("msp.flush_wait_ms")->Snap().Delta(f0);
  out.tracer_dropped = w.env()->tracer().dropped();

  std::vector<obs::SessionStatsSnapshot> tel = w.msp1()->SessionTelemetry();
  std::vector<obs::SessionStatsSnapshot> tel2 = w.msp2()->SessionTelemetry();
  tel.insert(tel.end(), tel2.begin(), tel2.end());
  out.telemetry_json = obs::SessionTelemetryJson(tel);
  out.blame_json =
      obs::AttributeTailQuantile(w.env()->tracer().Events(), 0.99).ToJson();

  if (scrape) {
    w.env()->scraper().Stop();
    out.scrape_samples = w.env()->scraper().samples_taken();
    out.prom_dump = w.env()->scraper().DumpPrometheus();
    out.scrape_json = w.env()->scraper().DumpJson();
  }
  w.Shutdown();
  return out;
}

void Emit(PaperConfig config, int m, const Measurement& meas) {
  obs::Json j;
  j.Add("config", PaperConfigName(config))
      .Add("m", m)
      .Add("requests", meas.r.requests)
      .Add("avg_ms", meas.r.avg_response_ms)
      .Add("p50_ms", meas.r.p50_ms)
      .Add("p90_ms", meas.r.p90_ms)
      .Add("p99_ms", meas.r.p99_ms)
      .Add("max_ms", meas.r.max_response_ms)
      .Add("throughput_rps", meas.r.throughput_rps)
      .Add("response", meas.r.response_hist)
      .Add("queue_wait", meas.queue_wait)
      .Add("execute", meas.execute)
      .Add("flush_wait", meas.flush_wait)
      .AddRaw("session_telemetry", meas.telemetry_json)
      .AddRaw("p99_blame", meas.blame_json);
  bench::AddTracerHealth(&j, meas.tracer_dropped);
  bench::EmitJson("fig14_response_time", j);
}

// Scraper overhead via interleaved off/on phases inside ONE workload.
// Separate off/on processes drift by several percent run to run (model time
// is wall-clock derived, so sleep overshoot and scheduling noise leak in),
// which would swamp the scraper's true cost. Instead: one long-lived
// workload, a generous warm-up (the first phase of a process runs
// measurably slower), then eight phases in an ABBA-BAAB pattern — off when
// the letter is A, scraper running at its default period when B — which
// cancels linear drift across the run. Each arm's response histograms are
// merged and the two arm means compared. Runs at time scale 1.0, where
// sleep overshoot is the smallest fraction of the sleep itself.
Measurement MeasureScraperOverhead() {
  const double kScale = 1.0;
  const int kPhaseRequests = 30;
  const bool kScrapeOn[8] = {false, true,  true,  false,
                             true,  false, false, true};
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = kScale;
  opts.calls_per_request = 1;
  // Background checkpoints collide with requests at random, and the §5.2
  // OS-interference coin flip turns one in three disk I/Os into a full
  // random seek. Both add request-to-request variance orders of magnitude
  // above the effect being measured; with them off the model latencies are
  // deterministic and the residual noise is just sleep overshoot.
  opts.checkpoint_daemon = false;
  opts.os_interference_prob = 0.0;
  PaperWorkload w(opts);
  Measurement out;
  if (!w.Start().ok()) {
    out.r.avg_response_ms = -1;
    return out;
  }
  RunResult warm = w.RunSingleClient(30);
  (void)warm;

  w.env()->scraper().WatchAllRegistered();
  w.msp1()->RegisterTelemetryProbes(&w.env()->scraper());
  w.msp2()->RegisterTelemetryProbes(&w.env()->scraper());

  obs::Histogram::Snapshot on_hist, off_hist;
  double on_sum = 0, off_sum = 0;
  int on_n = 0, off_n = 0;
  for (bool scrape : kScrapeOn) {
    if (scrape) w.env()->scraper().Start();
    RunResult r = w.RunSingleClient(kPhaseRequests);
    if (scrape) {
      w.env()->scraper().Stop();
      on_hist.Merge(r.response_hist);
      on_sum += r.avg_response_ms;
      ++on_n;
    } else {
      off_hist.Merge(r.response_hist);
      off_sum += r.avg_response_ms;
      ++off_n;
    }
  }
  out.scrape_samples = w.env()->scraper().samples_taken();
  out.prom_dump = w.env()->scraper().DumpPrometheus();
  out.scrape_json = w.env()->scraper().DumpJson();

  out.r.requests = on_hist.count;
  out.r.avg_response_ms = on_sum / on_n;
  out.r.p50_ms = on_hist.P50();
  out.r.p90_ms = on_hist.P90();
  out.r.p99_ms = on_hist.P99();
  out.r.response_hist = on_hist;
  out.avg_ms_scraper_off = off_sum / off_n;
  out.overhead_pct =
      out.avg_ms_scraper_off > 0
          ? 100.0 * (out.r.avg_response_ms - out.avg_ms_scraper_off) /
                out.avg_ms_scraper_off
          : 0;

  std::vector<obs::SessionStatsSnapshot> tel = w.msp1()->SessionTelemetry();
  std::vector<obs::SessionStatsSnapshot> tel2 = w.msp2()->SessionTelemetry();
  tel.insert(tel.end(), tel2.begin(), tel2.end());
  out.telemetry_json = obs::SessionTelemetryJson(tel);
  out.blame_json =
      obs::AttributeTailQuantile(w.env()->tracer().Events(), 0.99).ToJson();
  out.tracer_dropped = w.env()->tracer().dropped();
  w.Shutdown();
  return out;
}

void RunQuick(const std::string& scrape_dump_prefix) {
  bench::Header("bench_fig14_response_time --quick",
                "schema smoke: LoOptimistic, m = 1, small request count; "
                "plus scraper-overhead before/after");
  Measurement off =
      Measure(PaperConfig::kLoOptimistic, 1, /*time_scale=*/0.05,
              /*requests=*/40);
  printf("avg %.2f ms  p50 %.2f  p90 %.2f  p99 %.2f\n",
         off.r.avg_response_ms, off.r.p50_ms, off.r.p90_ms, off.r.p99_ms);
  Emit(PaperConfig::kLoOptimistic, 1, off);

  Measurement ov = MeasureScraperOverhead();
  printf("scraper on: avg %.2f ms (off %.2f ms, overhead %+.2f%%), "
         "%llu samples\n",
         ov.r.avg_response_ms, ov.avg_ms_scraper_off, ov.overhead_pct,
         static_cast<unsigned long long>(ov.scrape_samples));
  obs::Json j;
  j.Add("config", PaperConfigName(PaperConfig::kLoOptimistic))
      .Add("m", 1)
      .Add("requests", ov.r.requests)
      .Add("avg_ms", ov.r.avg_response_ms)
      .Add("p50_ms", ov.r.p50_ms)
      .Add("p90_ms", ov.r.p90_ms)
      .Add("p99_ms", ov.r.p99_ms)
      .Add("avg_ms_scraper_off", ov.avg_ms_scraper_off)
      .Add("avg_ms_scraper_on", ov.r.avg_response_ms)
      .Add("scraper_overhead_pct", ov.overhead_pct)
      .Add("scraper_samples", ov.scrape_samples)
      .AddRaw("session_telemetry", ov.telemetry_json)
      .AddRaw("p99_blame", ov.blame_json);
  bench::AddTracerHealth(&j, ov.tracer_dropped);
  bench::EmitJson("fig14_scraper_overhead", j);

  if (!scrape_dump_prefix.empty()) {
    std::ofstream prom(scrape_dump_prefix + ".prom");
    prom << ov.prom_dump;
    std::ofstream sj(scrape_dump_prefix + ".json");
    sj << ov.scrape_json;
    printf("scrape dumps: %s.prom, %s.json\n", scrape_dump_prefix.c_str(),
           scrape_dump_prefix.c_str());
  }
}

void Run() {
  const double kTimeScale = 0.1;
  const PaperConfig configs[] = {
      PaperConfig::kNoLog, PaperConfig::kStateServer,
      PaperConfig::kLoOptimistic, PaperConfig::kPessimistic,
      PaperConfig::kPsession};
  const double paper_m1[] = {8.697, 16.658, 24.746, 35.227, 48.617};

  bench::Header("bench_fig14_response_time",
                "Fig. 14 table + chart — avg response time (model ms), "
                "5 configurations, m = 1..4 calls per request");

  bench::Table table(
      {"config", "paper(m=1)", "m=1", "p50", "p90", "p99", "m=2", "m=3",
       "m=4"});
  double measured_m1[5];
  for (int c = 0; c < 5; ++c) {
    std::vector<std::string> row;
    row.push_back(PaperConfigName(configs[c]));
    row.push_back(bench::Fmt(paper_m1[c], 3));
    for (int m = 1; m <= 4; ++m) {
      Measurement meas = Measure(configs[c], m, kTimeScale, kRequests);
      Emit(configs[c], m, meas);
      if (m == 1) {
        measured_m1[c] = meas.r.avg_response_ms;
        row.push_back(bench::Fmt(meas.r.avg_response_ms));
        row.push_back(bench::Fmt(meas.r.p50_ms));
        row.push_back(bench::Fmt(meas.r.p90_ms));
        row.push_back(bench::Fmt(meas.r.p99_ms));
      } else {
        row.push_back(bench::Fmt(meas.r.avg_response_ms));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  printf("\nshape checks (m=1):\n");
  auto check = [&](const char* what, bool ok) {
    printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  };
  check("NoLog < StateServer", measured_m1[0] < measured_m1[1]);
  check("StateServer < LoOptimistic", measured_m1[1] < measured_m1[2]);
  check("LoOptimistic < Pessimistic", measured_m1[2] < measured_m1[3]);
  check("Pessimistic < Psession", measured_m1[3] < measured_m1[4]);
  double reduction = (measured_m1[3] - measured_m1[2]) / measured_m1[3];
  printf("  LoOptimistic reduces response time vs Pessimistic by %.0f%% "
         "(paper: ~30%%)\n", reduction * 100.0);
}

}  // namespace
}  // namespace msplog

int main(int argc, char** argv) {
  bool quick = false;
  std::string scrape_dump_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scrape-dump") == 0 && i + 1 < argc) {
      scrape_dump_prefix = argv[++i];
    }
  }
  if (quick) {
    msplog::RunQuick(scrape_dump_prefix);
  } else {
    msplog::Run();
  }
  return 0;
}
