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
};

Measurement Measure(PaperConfig config, int calls_per_request,
                    double time_scale, int requests) {
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

void RunQuick() {
  bench::Header("bench_fig14_response_time --quick",
                "schema smoke: LoOptimistic, m = 1, small request count");
  Measurement meas =
      Measure(PaperConfig::kLoOptimistic, 1, /*time_scale=*/0.05,
              /*requests=*/40);
  printf("avg %.2f ms  p50 %.2f  p90 %.2f  p99 %.2f\n",
         meas.r.avg_response_ms, meas.r.p50_ms, meas.r.p90_ms, meas.r.p99_ms);
  Emit(PaperConfig::kLoOptimistic, 1, meas);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (quick) {
    msplog::RunQuick();
  } else {
    msplog::Run();
  }
  return 0;
}
