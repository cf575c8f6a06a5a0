// Recovery-time bench — how checkpointing bounds crash-recovery work
// (§3.4, §4.3). The paper motivates checkpoints as "reducing recovery
// time, which is important for high availability" but reports recovery
// cost only indirectly (through Fig. 16's maxima). This bench measures it
// directly: crash MSP1 after a fixed workload and report the analysis-scan
// time, the time until every session finished replaying, the number of
// requests replayed, and the log space reclaimed — per checkpoint
// threshold. The outage observatory rides along: each point also reports
// the flight-recorder-joined outage report (per-session fate and MTTR).
//
// --quick: one point (64KB threshold, 150 requests, faster clock) for the
// CTest perf-regression oracle (compare_bench.py against
// bench/baselines/recovery_quick.json).
//
// --instant: the instant-restart view. Many sessions share MSP1's log; after
// the crash a few "hot" sessions issue a request immediately, hitting the
// admission gate's on-demand replay while the background drain works
// through the rest. Reports per-session time-to-servable (p50 over the hot
// set) against the full-drain time — the classic recovery time every
// session would have waited under a monolithic gate. --quick --instant is
// one small point for the oracle (bench/baselines/recovery_instant_quick.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness/paper_workload.h"

namespace msplog {
namespace {

struct Point {
  double scan_ms = 0;
  double total_ms = 0;
  uint64_t replayed = 0;
  uint64_t reclaimed = 0;
  uint64_t log_bytes = 0;
  uint64_t tracer_dropped = 0;
  obs::RecoveryTimeline timeline;
  obs::OutageReport outage;
};

Point Measure(uint64_t threshold, int requests, double time_scale) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = time_scale;
  opts.session_checkpoint_threshold_bytes = threshold;
  opts.msp_checkpoint_log_bytes = threshold ? threshold : 0;
  opts.checkpoint_daemon = threshold != 0;
  PaperWorkload w(opts);
  Point p;
  if (!w.Start().ok()) return p;
  RunResult r = w.RunSingleClient(requests);
  (void)r;

  uint64_t recovered_before = w.env()->stats().sessions_recovered.load();
  uint64_t replayed_before = w.env()->stats().requests_replayed.load();
  p.log_bytes = w.msp1()->log()->end_lsn();

  w.msp1()->Crash();
  double t0 = w.env()->NowModelMs();
  if (!w.msp1()->Start().ok()) return p;
  // MSP1 hosts one client session plus nothing else; wait for its replay.
  while (w.env()->stats().sessions_recovered.load() <= recovered_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  p.total_ms = w.env()->NowModelMs() - t0;
  p.timeline = w.msp1()->LastRecoveryTimeline();
  p.scan_ms = p.timeline.analysis_scan_ms;
  p.outage = p.timeline.Outage();
  p.replayed =
      w.env()->stats().requests_replayed.load() - replayed_before;
  p.reclaimed = w.env()->stats().disk_bytes_reclaimed.load();
  p.tracer_dropped = w.env()->tracer().dropped();
  w.Shutdown();
  return p;
}

void EmitPoint(const char* label, const Point& p) {
  obs::Json j;
  j.Add("threshold", label)
      .Add("scan_ms", p.scan_ms)
      .Add("total_ms", p.total_ms)
      .Add("replayed", p.replayed)
      .Add("reclaimed_bytes", p.reclaimed)
      .Add("mttr_count", p.outage.mttr.count)
      .Add("mttr_mean_ms", p.outage.mttr.mean_ms)
      .Add("mttr_p50_ms", p.outage.mttr.p50_ms)
      .Add("mttr_p99_ms", p.outage.mttr.p99_ms)
      .Add("mttr_max_ms", p.outage.mttr.max_ms)
      .AddRaw("outage_report", p.outage.ToJson())
      .AddRaw("timeline", p.timeline.ToJson());
  bench::AddTracerHealth(&j, p.tracer_dropped);
  bench::EmitJson("recovery_time", j);
}

// ---- instant restart ----

struct InstantPoint {
  uint64_t sessions = 0;
  uint64_t hot = 0;
  uint64_t log_bytes = 0;
  double open_ms = 0;        ///< crash → open for traffic (scan + checkpoint)
  double hot_p50_ms = 0;     ///< p50 time-to-servable over the hot sessions
  double all_p50_ms = 0;     ///< p50 time-to-servable over every session
  double full_drain_ms = 0;  ///< crash → last session replayed (classic MTTR)
  uint64_t on_demand = 0;
  uint64_t tracer_dropped = 0;
  obs::RecoveryTimeline timeline;
  obs::OutageReport outage;
};

InstantPoint MeasureInstant(int sessions, int hot, int requests_per_session,
                            double time_scale) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = time_scale;
  // No checkpoints: every session replays its whole history, so the drain
  // tail is long and the per-session admission gate has something to beat.
  opts.session_checkpoint_threshold_bytes = 0;
  opts.msp_checkpoint_log_bytes = 0;
  opts.checkpoint_daemon = false;
  // One pool thread = one drain pump replaying sessions strictly in SJF
  // order; an on-demand replay jumps the queue after at most the one
  // in-flight replay. This is the configuration where per-session REDO
  // matters most — the full drain is the sum of every session's replay.
  opts.thread_pool_size = 1;
  // Replay re-charges the method's model compute (§5.4), so a compute-heavy
  // method makes per-session replay dominate the shared, one-off analysis
  // scan — the regime §4.3 targets. Shrinking the per-request log footprint
  // and disabling OS seek interference pushes the same way from the other
  // side: the scan is cheap and deterministic, the replay work is not.
  opts.method_compute_ms = 20.0;
  opts.os_interference_prob = 0.0;
  opts.session_state_bytes = 1024;
  opts.session_write_bytes = 128;
  PaperWorkload w(opts);
  InstantPoint p;
  p.sessions = static_cast<uint64_t>(sessions);
  p.hot = static_cast<uint64_t>(hot);
  if (!w.Start().ok()) return p;

  // Hot sessions get their own client endpoints so the post-restart
  // requests come from the same endpoint the session's replies route to.
  // Every session carries identical work, so the SJF drain falls back to
  // its id tie-break — the "zz-" prefix parks the hot sessions at the BACK
  // of the queue, the worst case a monolithic gate would make them wait
  // out and exactly the case on-demand admission is built for.
  std::vector<std::unique_ptr<ClientEndpoint>> hot_clients;
  std::vector<ClientSession> hot_ids;
  Bytes reply;
  for (int h = 0; h < hot; ++h) {
    hot_clients.push_back(w.MakeClient("zz-hot" + std::to_string(h)));
    hot_ids.push_back(hot_clients.back()->StartSession("msp1"));
    for (int r = 0; r < requests_per_session; ++r) {
      (void)hot_clients.back()->Call(&hot_ids.back(), "ServiceMethod1",
                                     std::string(64, 'a' + (r % 26)), &reply);
    }
  }
  auto client = w.MakeClient("instant-cli");
  std::vector<ClientSession> ids;
  for (int s = hot; s < sessions; ++s) {
    ids.push_back(client->StartSession("msp1"));
    for (int r = 0; r < requests_per_session; ++r) {
      (void)client->Call(&ids.back(), "ServiceMethod1",
                         std::string(64, 'a' + (r % 26)), &reply);
    }
  }
  p.log_bytes = w.msp1()->log()->end_lsn();

  const uint64_t recovered_before = w.env()->stats().sessions_recovered.load();
  w.msp1()->Crash();
  const double t0 = w.env()->NowModelMs();
  if (!w.msp1()->Start().ok()) return p;

  // Hot sessions fire one request each, concurrently, the moment the
  // server reopened — each lands in the admission gate and triggers an
  // on-demand replay of just that session (or queues behind the drain's
  // in-flight replay of it).
  std::vector<std::thread> hot_threads;
  for (int h = 0; h < hot; ++h) {
    hot_threads.emplace_back([&hot_clients, &hot_ids, h] {
      Bytes r;
      (void)hot_clients[h]->Call(&hot_ids[h], "ServiceMethod1", "hot", &r);
    });
  }
  for (auto& t : hot_threads) t.join();

  while (w.env()->stats().sessions_recovered.load() <
         recovered_before + static_cast<uint64_t>(sessions)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  p.full_drain_ms = w.env()->NowModelMs() - t0;
  p.timeline = w.msp1()->LastRecoveryTimeline();
  p.open_ms = p.timeline.open_for_traffic_ms;
  p.on_demand = p.timeline.on_demand_replays;
  p.outage = p.timeline.Outage();
  p.all_p50_ms = p.outage.mttr.p50_ms;
  std::vector<double> hot_tts;
  for (const obs::OutageReport::SessionFate& f : p.outage.sessions) {
    for (const ClientSession& h : hot_ids) {
      if (f.session_id == h.session_id) {
        hot_tts.push_back(f.time_to_servable_ms);
      }
    }
  }
  if (!hot_tts.empty()) {
    std::sort(hot_tts.begin(), hot_tts.end());
    p.hot_p50_ms = hot_tts[hot_tts.size() / 2];
  }
  p.tracer_dropped = w.env()->tracer().dropped();
  w.Shutdown();
  return p;
}

void EmitInstantPoint(const char* label, const InstantPoint& p) {
  obs::Json j;
  j.Add("threshold", label)
      .Add("sessions", p.sessions)
      .Add("hot_sessions", p.hot)
      .Add("log_bytes", p.log_bytes)
      .Add("open_ms", p.open_ms)
      .Add("hot_tts_p50_ms", p.hot_p50_ms)
      .Add("all_tts_p50_ms", p.all_p50_ms)
      .Add("full_drain_ms", p.full_drain_ms)
      .Add("on_demand_replays", p.on_demand)
      .Add("mttr_count", p.outage.mttr.count)
      .Add("mttr_p50_ms", p.outage.mttr.p50_ms)
      .Add("mttr_max_ms", p.outage.mttr.max_ms)
      .AddRaw("outage_report", p.outage.ToJson())
      .AddRaw("timeline", p.timeline.ToJson());
  bench::AddTracerHealth(&j, p.tracer_dropped);
  bench::EmitJson("recovery_time", j);
}

void PrintInstantPoint(const InstantPoint& p) {
  printf("  %llu sessions (%llu hot), log %llu B: open %.1f ms, hot p50 "
         "time-to-servable %.1f ms, all p50 %.1f ms, full drain %.1f ms, "
         "%llu on-demand (%.1fx hot speedup over full drain)\n",
         static_cast<unsigned long long>(p.sessions),
         static_cast<unsigned long long>(p.hot),
         static_cast<unsigned long long>(p.log_bytes), p.open_ms, p.hot_p50_ms,
         p.all_p50_ms, p.full_drain_ms,
         static_cast<unsigned long long>(p.on_demand),
         p.hot_p50_ms > 0 ? p.full_drain_ms / p.hot_p50_ms : 0.0);
}

void RunInstantQuick() {
  bench::Header("bench_recovery_time --quick --instant",
                "instant restart, one point (12 sessions, 2 hot) for the "
                "perf-regression oracle");
  InstantPoint p = MeasureInstant(/*sessions=*/12, /*hot=*/2,
                                  /*requests_per_session=*/6,
                                  /*time_scale=*/0.02);
  PrintInstantPoint(p);
  EmitInstantPoint("InstantQuick", p);
}

void RunInstant() {
  bench::Header("bench_recovery_time --instant",
                "per-session time-to-servable vs full-drain recovery time: "
                "hot sessions are admitted by on-demand replay while the "
                "background drain finishes the rest");
  struct InstantRow {
    const char* label;
    int sessions;
    int requests;
  };
  const InstantRow rows[] = {{"Instant16", 16, 8}, {"Instant32", 32, 8}};
  InstantPoint points[2];
  for (int i = 0; i < 2; ++i) {
    points[i] = MeasureInstant(rows[i].sessions, /*hot=*/3, rows[i].requests,
                               /*time_scale=*/0.05);
    PrintInstantPoint(points[i]);
    EmitInstantPoint(rows[i].label, points[i]);
  }

  printf("\nshape checks:\n");
  auto check = [](const char* what, bool ok) {
    printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  };
  const InstantPoint& big = points[1];  // largest log size
  check("server opens before the drain finishes (open << full drain)",
        big.open_ms > 0 && big.open_ms < big.full_drain_ms / 2);
  check("hot p50 time-to-servable >= 5x below full-drain recovery time "
        "at the largest log size",
        big.hot_p50_ms > 0 && big.hot_p50_ms * 5 <= big.full_drain_ms);
  check("admission gate actually fired (on-demand replays > 0)",
        points[0].on_demand > 0 && points[1].on_demand > 0);
  check("outage report complete at both scales",
        points[0].outage.complete && points[1].outage.complete &&
            points[0].outage.mttr.count == points[0].sessions &&
            points[1].outage.mttr.count == points[1].sessions);
}

void RunQuick() {
  bench::Header("bench_recovery_time --quick",
                "recovery cost + outage MTTR, one point (64KB threshold, "
                "150 requests) for the perf-regression oracle");
  Point p = Measure(64ull << 10, /*requests=*/150, /*time_scale=*/0.02);
  printf("  scan %.1f ms, total %.1f ms, %llu replayed, MTTR mean %.1f ms "
         "(%llu session(s))\n",
         p.scan_ms, p.total_ms, static_cast<unsigned long long>(p.replayed),
         p.outage.mttr.mean_ms,
         static_cast<unsigned long long>(p.outage.mttr.count));
  EmitPoint("64KB", p);
}

void Run() {
  bench::Header("bench_recovery_time",
                "recovery cost vs checkpoint threshold (600 requests, then "
                "crash MSP1): scan + parallel replay, model ms");

  struct Row {
    const char* label;
    uint64_t threshold;
  };
  const Row rows[] = {{"NoCp", 0},
                      {"256KB", 256ull << 10},
                      {"64KB", 64ull << 10},
                      {"16KB", 16ull << 10}};

  bench::Table table({"threshold", "scan(ms)", "records scanned",
                      "recovery total(ms)", "replay(ms)",
                      "requests replayed", "log reclaimed(B)", "MTTR(ms)"});
  Point results[4];
  for (int i = 0; i < 4; ++i) {
    results[i] = Measure(rows[i].threshold, /*requests=*/600,
                         /*time_scale=*/0.05);
    const obs::RecoveryTimeline& tl = results[i].timeline;
    table.AddRow({rows[i].label, bench::Fmt(results[i].scan_ms, 1),
                  std::to_string(tl.analysis_records_scanned),
                  bench::Fmt(results[i].total_ms, 1),
                  bench::Fmt(tl.TotalReplayMs(), 1),
                  std::to_string(results[i].replayed),
                  std::to_string(results[i].reclaimed),
                  bench::Fmt(results[i].outage.mttr.mean_ms, 1)});
    EmitPoint(rows[i].label, results[i]);
  }
  table.Print();

  printf("\nshape checks:\n");
  auto check = [](const char* what, bool ok) {
    printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  };
  check("replay work shrinks monotonically with the checkpoint threshold",
        results[0].replayed >= results[1].replayed &&
            results[1].replayed >= results[2].replayed &&
            results[2].replayed >= results[3].replayed);
  check("total recovery time shrinks with frequent checkpoints (16KB vs NoCp)",
        results[3].total_ms < results[0].total_ms);
  // Without checkpoints the only reclamation is the one MSP checkpoint at
  // recovery end; with checkpoints nearly the whole log is freed.
  check("checkpointing enables log reclamation (orders of magnitude more)",
        results[3].reclaimed > 50 * (results[0].reclaimed + 1));
  // The outage observatory must account for the crash at every threshold:
  // the one client session was in flight, and replay made it servable.
  bool outage_ok = true;
  for (const Point& p : results) {
    outage_ok &= p.outage.valid && p.outage.complete &&
                 p.outage.mttr.count >= 1 && p.outage.mttr.mean_ms > 0;
  }
  check("outage report complete at every threshold (MTTR > 0)", outage_ok);
}

}  // namespace
}  // namespace msplog

int main(int argc, char** argv) {
  bool quick = false;
  bool instant = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--instant") == 0) instant = true;
  }
  if (quick && instant) {
    msplog::RunInstantQuick();
  } else if (instant) {
    msplog::RunInstant();
  } else if (quick) {
    msplog::RunQuick();
  } else {
    msplog::Run();
  }
  return 0;
}
