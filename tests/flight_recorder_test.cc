// Flight recorder + outage observatory tests: bundles freezing the event
// tracer's tail, the freeze triggers (simulated crash, invariant
// violation), the recovery-side outage join (per-session fates and MTTR vs
// ground truth under a chaos workload), the offline post-mortem
// cross-check, and the bounded crash-generation / recovery-timeline
// history across many cycles.
//
// The chaos test exports its frozen bundle, live outage report, and raw log
// image (msplog_outage_*.{json,bin}) so CI can drive the msplog_postmortem
// CLI over real artifacts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "audit/invariants.h"
#include "harness/paper_workload.h"
#include "json_strict.h"
#include "msp/postmortem.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace msplog {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder unit tests (no server involved).
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, BundleFreezesTheTracerTail) {
  // The recorder keeps no ring of its own: a bundle freezes the newest
  // events of the environment's EventTracer, wired as in SimEnvironment.
  double now = 1.0;
  obs::EventTracer tracer;
  obs::FlightRecorder fr([&now] { return now; });
  fr.set_tracer_tail_dump([&tracer] { return tracer.DumpJson(4); });
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record(obs::TraceEventType::kDequeue, 1.0 + i, "m1", "sA", i,
                  "e" + std::to_string(i));
  }
  obs::FlightBundle b = fr.FreezeOnCrash("m1", 1);
  EXPECT_TRUE(JsonStrict(b.tracer_tail_json));
  // Exactly the newest four events survive, oldest first.
  EXPECT_EQ(b.tracer_tail_json.find("\"detail\":\"e5\""), std::string::npos);
  size_t prev = 0;
  for (int i = 6; i < 10; ++i) {
    size_t at = b.tracer_tail_json.find("\"detail\":\"e" +
                                        std::to_string(i) + "\"");
    ASSERT_NE(at, std::string::npos) << i;
    EXPECT_GT(at, prev);
    prev = at;
  }
  std::string json = b.ToJson();
  EXPECT_TRUE(JsonStrict(json));
  EXPECT_EQ(json.find("\"events\""), std::string::npos);
  EXPECT_EQ(json.find("\"events_dropped\""), std::string::npos);
}

TEST(FlightRecorderTest, FreezeOnCrashSnapshotsTheCrashedActorOnly) {
  double now = 5.0;
  obs::FlightRecorder fr([&now] { return now; });
  fr.SetSnapshotProvider("m1", [] {
    obs::FlightSnapshot s;
    s.statusz_json = "{\"who\":\"m1\"}";
    s.inflight_sessions = {"sA", "sB"};
    s.log_end_lsn = 100;
    s.log_durable_lsn = 80;
    return s;
  });
  fr.SetSnapshotProvider("m2", [] { return obs::FlightSnapshot(); });
  fr.set_tracer_tail_dump([] { return std::string("[{\"t\":1}]"); });

  obs::FlightBundle b = fr.FreezeOnCrash("m1", 3, "test crash");
  EXPECT_TRUE(b.frozen);
  EXPECT_EQ(b.generation, 3u);
  EXPECT_EQ(b.actor, "m1");
  EXPECT_EQ(b.trigger, "crash");
  EXPECT_EQ(b.frozen_at_ms, 5.0);
  ASSERT_EQ(b.snapshots.size(), 1u);  // only the crashed actor
  EXPECT_EQ(b.snapshots[0].first, "m1");
  EXPECT_EQ(b.snapshots[0].second.inflight_sessions.size(), 2u);
  EXPECT_EQ(b.snapshots[0].second.log_durable_lsn, 80u);
  EXPECT_EQ(fr.frozen_count(), 1u);
  // The same bundle is retrievable by actor.
  obs::FlightBundle again = fr.LatestBundleFor("m1");
  EXPECT_TRUE(again.frozen);
  EXPECT_EQ(again.generation, 3u);
  EXPECT_FALSE(fr.LatestBundleFor("nobody").frozen);

  std::string json = b.ToJson();
  EXPECT_TRUE(JsonStrict(json));
  EXPECT_NE(json.find("\"trigger\":\"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"statusz\":{\"who\":\"m1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"tracer_tail\":[{\"t\":1}]"), std::string::npos);
}

TEST(FlightRecorderTest, BundleHistoryIsBounded) {
  double now = 0;
  obs::FlightRecorder fr([&now] { return now; }, /*max_bundles=*/2);
  for (uint64_t g = 1; g <= 5; ++g) {
    now = static_cast<double>(g);
    fr.FreezeOnCrash("m", g);
  }
  std::vector<obs::FlightBundle> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 2u);
  EXPECT_EQ(bundles[0].generation, 4u);
  EXPECT_EQ(bundles[1].generation, 5u);
  EXPECT_EQ(fr.frozen_count(), 5u);
  EXPECT_EQ(fr.LatestBundleFor("m").generation, 5u);
}

TEST(FlightRecorderTest, ViolationFreezeSnapshotsAllProviders) {
  double now = 2.0;
  obs::FlightRecorder fr([&now] { return now; });
  fr.SetSnapshotProvider("m1", [] { return obs::FlightSnapshot(); });
  fr.SetSnapshotProvider("m2", [] { return obs::FlightSnapshot(); });
  fr.FreezeOnViolation("dv-monotonic", "went backwards");
  std::vector<obs::FlightBundle> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].trigger, "invariant:dv-monotonic");
  EXPECT_EQ(bundles[0].snapshots.size(), 2u);
  EXPECT_EQ(bundles[0].detail, "went backwards");
  std::string json = bundles[0].ToJson();
  EXPECT_TRUE(JsonStrict(json));
  EXPECT_NE(json.find("invariant:dv-monotonic"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server integration.
// ---------------------------------------------------------------------------

TEST(FlightRecorderIntegrationTest, InvariantViolationFreezesServerState) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  auto client = w.MakeClient("client1");
  auto session = client->StartSession("msp1");
  Bytes reply;
  ASSERT_TRUE(
      client->Call(&session, "ServiceMethod1", MakePayload(100, 1), &reply)
          .ok());

  const uint64_t frozen_before = w.env()->flight_recorder().frozen_count();
  // Fire a (non-fatal) violation directly: the registry hook wired by
  // SimEnvironment must freeze a bundle snapshotting every registered MSP.
  audit::InvariantRegistry::Instance().Violation("test-invariant",
                                                 "injected by test");
  EXPECT_EQ(w.env()->flight_recorder().frozen_count(), frozen_before + 1);
  std::vector<obs::FlightBundle> bundles =
      w.env()->flight_recorder().Bundles();
  ASSERT_FALSE(bundles.empty());
  const obs::FlightBundle& b = bundles.back();
  EXPECT_EQ(b.trigger, "invariant:test-invariant");
  ASSERT_EQ(b.snapshots.size(), 2u);  // msp1 and msp2
  for (const auto& [who, snap] : b.snapshots) {
    EXPECT_TRUE(who == "msp1" || who == "msp2");
    EXPECT_NE(snap.statusz_json.find("\"id\":\"" + who + "\""),
              std::string::npos);
  }
  // The request the client just made is in the frozen tracer tail.
  EXPECT_NE(b.tracer_tail_json.find("\"type\":\"Dequeue\""),
            std::string::npos);
  EXPECT_TRUE(JsonStrict(b.ToJson()));
  audit::InvariantRegistry::Instance().ResetForTest();
  w.Shutdown();
}

// A real crash freezes exactly the newest 256 events of a multi-stripe ring
// that many threads recorded into: with nothing dropped, their seqs are
// consecutive and end at the newest event.
TEST(FlightRecorderIntegrationTest, CrashBundleHoldsTheNewest256Events) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;  // no recorder runs between requests
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  const obs::EventTracer& tracer = w.env()->tracer();
  auto client = w.MakeClient("client1");
  auto session = client->StartSession("msp1");
  Bytes reply;
  while (tracer.Events().size() < 2 * 256) {
    ASSERT_TRUE(
        client->Call(&session, "ServiceMethod1", MakePayload(100, 1), &reply)
            .ok());
  }
  // A server records ReplySent after the send, so wait until the ring has
  // stopped growing: no thread may record during the freeze.
  size_t seen = 0;
  for (int poll = 0; poll < 500 && tracer.Events().size() != seen; ++poll) {
    seen = tracer.Events().size();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(tracer.dropped(), 0u);
  const uint64_t newest = tracer.Events().back().seq;

  w.msp1()->Crash();
  const obs::FlightBundle b = w.env()->flight_recorder().LatestBundleFor("msp1");
  ASSERT_TRUE(b.frozen);
  EXPECT_TRUE(JsonStrict(b.tracer_tail_json));
  const std::vector<uint64_t> seqs = DumpedSeqs(b.tracer_tail_json);
  ASSERT_EQ(seqs.size(), 256u);
  EXPECT_EQ(seqs.back(), newest);
  for (size_t i = 1; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], seqs[i - 1] + 1) << "event " << i;
  }
  w.Shutdown();
}

// The statusz a crash freezes is the crashed server's own: MSP1's queue-wait
// count equals MSP1's dequeues, though MSP2 served a nested call for each.
TEST(FlightRecorderIntegrationTest, CrashBundleStatuszCountsOnlyItsServer) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;  // no recorder runs between requests
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  const obs::EventTracer& tracer = w.env()->tracer();
  auto client = w.MakeClient("client1");
  auto session = client->StartSession("msp1");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client->Call(&session, "ServiceMethod1", MakePayload(100, 1), &reply)
            .ok());
  }
  // Let the calls settle: wait until the ring stops growing.
  size_t seen = 0;
  for (int poll = 0; poll < 500 && tracer.Events().size() != seen; ++poll) {
    seen = tracer.Events().size();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto dequeued = [&](const std::string& id) {
    uint64_t n = 0;
    for (const obs::TraceEvent& e : tracer.Events()) {
      if (e.type == obs::TraceEventType::kDequeue && e.actor == id) ++n;
    }
    return n;
  };
  const uint64_t msp1_dequeues = dequeued("msp1");
  ASSERT_GE(msp1_dequeues, 5u);
  ASSERT_GE(dequeued("msp2"), 5u);

  w.msp1()->Crash();
  const obs::FlightBundle b = w.env()->flight_recorder().LatestBundleFor("msp1");
  ASSERT_TRUE(b.frozen);
  ASSERT_EQ(b.snapshots.size(), 1u);
  EXPECT_EQ(UintAt(b.snapshots[0].second.statusz_json,
                   {"histograms", "queue_wait_ms", "count"}),
            msp1_dequeues);
  w.Shutdown();
}

TEST(FlightRecorderIntegrationTest, StatuszCarriesCrashEpochs) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  auto client = w.MakeClient("client1");
  auto session = client->StartSession("msp1");
  Bytes reply;
  ASSERT_TRUE(
      client->Call(&session, "ServiceMethod1", MakePayload(100, 1), &reply)
          .ok());

  std::string statusz0 = w.msp1()->DumpStatusz();
  EXPECT_NE(statusz0.find("\"crash_generation\":0"), std::string::npos);
  EXPECT_NE(statusz0.find("\"uptime_since_recovery_ms\":"), std::string::npos);

  w.msp1()->Crash();
  ASSERT_TRUE(w.msp1()->Start().ok());
  EXPECT_EQ(w.msp1()->crash_generation(), 1u);
  std::string statusz1 = w.msp1()->DumpStatusz();
  EXPECT_NE(statusz1.find("\"crash_generation\":1"), std::string::npos);
  EXPECT_NE(statusz1.find("\"last_outage_report\":{"), std::string::npos);
  w.Shutdown();
}

// ---------------------------------------------------------------------------
// Outage observatory: chaos crash mid-workload, fates vs ground truth,
// offline post-mortem cross-check, artifact export for CI.
// ---------------------------------------------------------------------------

TEST(OutageObservatoryTest, ChaosCrashFatesAndMttrMatchGroundTruth) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.client_max_sends = 5000;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());

  // 30 requests, MSP2 killed mid-request every 10 (§5.4 injection).
  RunResult r = w.RunSingleClient(30, /*crash_every=*/10);
  ASSERT_EQ(r.requests, 30u);
  ASSERT_GE(w.crashes_injected(), 1u);

  const obs::FlightBundle bundle =
      w.env()->flight_recorder().LatestBundleFor("msp2");
  ASSERT_TRUE(bundle.frozen);
  EXPECT_EQ(bundle.generation, w.crashes_injected());
  ASSERT_EQ(bundle.snapshots.size(), 1u);
  const obs::FlightSnapshot& snap = bundle.snapshots[0].second;
  // MSP2 served MSP1's one outgoing session; it was in flight at the crash.
  ASSERT_FALSE(snap.inflight_sessions.empty());

  const obs::OutageReport report = w.msp2()->LastRecoveryTimeline().Outage();
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.generation, bundle.generation);
  EXPECT_EQ(report.crash_model_ms, bundle.frozen_at_ms);
  // Ground truth: every in-flight session is accounted for with a terminal
  // fate — nothing left pending.
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.sessions.size(), snap.inflight_sessions.size());
  for (const auto& f : report.sessions) {
    EXPECT_TRUE(f.fate == "replayed" || f.fate == "orphaned" ||
                f.fate == "never-logged")
        << f.session_id << " has fate " << f.fate;
    EXPECT_GT(f.servable_at_ms, report.crash_model_ms);
  }
  // The crashes happened after nine completed requests whose client replies
  // forced distributed flushes covering MSP2 — the session has a durable
  // trace, so the mid-workload crash must classify it as replayed. The
  // view lists the fates in the bundle's order.
  const obs::OutageReport::SessionFate& f = report.sessions[0];
  EXPECT_EQ(f.session_id, snap.inflight_sessions[0]);
  EXPECT_EQ(f.fate, "replayed");
  EXPECT_GT(f.requests_replayed, 0u);
  // MTTR: positive, and bounded by the whole run's model time.
  ASSERT_EQ(report.mttr.count, report.sessions.size());
  EXPECT_GT(report.mttr.mean_ms, 0.0);
  EXPECT_LE(report.mttr.p50_ms, report.mttr.p99_ms);
  EXPECT_LT(report.mttr.max_ms, r.elapsed_model_ms);

  // Offline cross-check: re-derive the fates from the raw log image alone
  // (same inputs the msplog_postmortem CLI gets) and compare.
  LogFile* log = w.msp2()->log();
  ASSERT_NE(log, nullptr);
  PostmortemInput input;
  input.actor = bundle.actor;
  input.generation = bundle.generation;
  input.crash_model_ms = bundle.frozen_at_ms;
  input.durable_at_crash = snap.log_durable_lsn;
  input.inflight_sessions = snap.inflight_sessions;
  PostmortemReport offline;
  ASSERT_TRUE(DerivePostmortem(log->disk(), log->file_name(), input, &offline)
                  .ok());
  ASSERT_EQ(offline.sessions.size(), report.sessions.size());
  EXPECT_TRUE(JsonStrict(offline.ToJson()));
  EXPECT_TRUE(JsonStrict(report.ToJson()));
  EXPECT_TRUE(JsonStrict(bundle.ToJson()));
  for (const auto& live : report.sessions) {
    const PostmortemSessionFate* mine = offline.Find(live.session_id);
    ASSERT_NE(mine, nullptr) << live.session_id;
    EXPECT_EQ(mine->fate, live.fate) << live.session_id;
  }

  // Export the artifacts for the CI post-mortem step (CLI cross-check).
  {
    std::ofstream bf("msplog_outage_bundle.json", std::ios::binary);
    bf << bundle.ToJson() << "\n";
    std::ofstream rf("msplog_outage_report.json", std::ios::binary);
    rf << report.ToJson() << "\n";
    uint64_t size = log->disk()->FileSize(log->file_name());
    Bytes image;
    ASSERT_TRUE(log->disk()->ReadAt(log->file_name(), 0, size, &image).ok());
    std::ofstream lf("msplog_outage_log_image.bin", std::ios::binary);
    lf.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  w.Shutdown();
}

TEST(OutageObservatoryTest, CrashOnFirstRequestLeavesSessionNeverLogged) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.25;
  opts.checkpoint_daemon = false;
  opts.client_max_sends = 5000;
  std::atomic<bool> cut{false};  // outlives w, whose msp2 holds the hook
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());

  // Arm before ANY request: MSP2 dies while serving its first-ever request,
  // before MSP1's client-reply flush could make MSP2's records durable — so
  // the crash erases the session from the log entirely. The armed crash
  // runs on a harness thread spawned when MSP2's reply reaches MSP1, so
  // order it before the flush explicitly: from MSP2's first reply on, drop
  // everything MSP1 sends MSP2 until MSP2 has crashed and restarted. The
  // flush leg's resend then reaches the new incarnation.
  w.msp2()->SetAfterRequestHook(
      [&w, &cut](Msp*, const std::string&, uint64_t) {
        if (cut.exchange(true)) return;
        FaultPlan drop_all;
        drop_all.drop_prob = 1.0;
        w.network()->SetFaults("msp1", "msp2", drop_all);
      });
  std::thread heal([&w] {
    for (int i = 0; i < 20000; ++i) {
      if (w.msp2()->crash_generation() > 0 && w.msp2()->running()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    w.network()->ClearFaults();
  });
  w.ArmCrash();
  ClientOptions copts;
  copts.max_sends = 5000;
  copts.resend_timeout_ms = 50;
  copts.busy_backoff_ms = 10;
  ClientEndpoint client(w.env(), w.network(), "client1", copts);
  w.network()->SetLinkLatency("client1", "msp1", 0.0);
  auto session = client.StartSession("msp1");
  Bytes reply;
  const Status call =
      client.Call(&session, "ServiceMethod1", MakePayload(100, 1), &reply);
  heal.join();
  ASSERT_TRUE(call.ok());
  ASSERT_EQ(w.crashes_injected(), 1u);
  // The crash/restart cycle runs on a harness thread, and MSP2 dispatches
  // the reply above before Start() stamps the moment it reopened, which is
  // when the never-logged session counts as servable: wait for the view
  // to resolve, not only for the join.
  for (int i = 0;
       i < 2000 && !w.msp2()->LastRecoveryTimeline().Outage().complete; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const obs::FlightBundle bundle =
      w.env()->flight_recorder().LatestBundleFor("msp2");
  ASSERT_TRUE(bundle.frozen);
  const obs::FlightSnapshot& snap = bundle.snapshots[0].second;
  ASSERT_EQ(snap.inflight_sessions.size(), 1u);

  const obs::OutageReport report = w.msp2()->LastRecoveryTimeline().Outage();
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].fate, "never-logged");
  EXPECT_EQ(report.sessions[0].requests_replayed, 0u);
  EXPECT_GT(report.sessions[0].time_to_servable_ms, 0.0);
  EXPECT_EQ(report.mttr.count, 1u);

  // The offline derivation agrees: no durable trace below the crash point.
  LogFile* log = w.msp2()->log();
  PostmortemInput input;
  input.actor = bundle.actor;
  input.durable_at_crash = snap.log_durable_lsn;
  input.inflight_sessions = snap.inflight_sessions;
  PostmortemReport offline;
  ASSERT_TRUE(DerivePostmortem(log->disk(), log->file_name(), input, &offline)
                  .ok());
  ASSERT_EQ(offline.sessions.size(), 1u);
  EXPECT_EQ(offline.sessions[0].fate, "never-logged");
  w.Shutdown();
}

// ---------------------------------------------------------------------------
// One record per recovery across many crash/recovery cycles.
// ---------------------------------------------------------------------------

TEST(OutageObservatoryTest, RecordPerRecoveryAcrossManyCycles) {
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.client_max_sends = 5000;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  auto client = w.MakeClient("client1");
  auto session = client->StartSession("msp1");

  constexpr int kCycles = 10;
  for (int i = 1; i <= kCycles; ++i) {
    Bytes reply;
    ASSERT_TRUE(client
                    ->Call(&session, "ServiceMethod1", MakePayload(100, i),
                           &reply)
                    .ok())
        << "request " << i;
    w.msp1()->Crash();
    ASSERT_TRUE(w.msp1()->Start().ok());
    // Session replays run in the thread pool after Start() returns; wait
    // for this cycle's replay to land in this cycle's record.
    obs::RecoveryTimeline tl;
    for (int t = 0; t < 10000; ++t) {
      tl = w.msp1()->LastRecoveryTimeline();
      if (!tl.session_replays.empty()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Initial boot was epoch 1; each cycle bumps it and joins its crash.
    EXPECT_EQ(tl.epoch, static_cast<uint32_t>(i + 1));
    EXPECT_EQ(tl.crash_generation, static_cast<uint64_t>(i));
    EXPECT_EQ(tl.sessions_to_recover, 1u);
    // The replay of the client session records where its state came from.
    ASSERT_EQ(tl.session_replays.size(), 1u) << "cycle " << i;
    const obs::RecoveryTimeline::SessionReplay& rep = tl.session_replays[0];
    EXPECT_EQ(rep.session_id, session.session_id);
    EXPECT_TRUE(rep.from_crash);
    EXPECT_TRUE(rep.session_checkpoint_lsn != 0 || !rep.records.empty());
    const obs::OutageReport outage = tl.Outage();
    EXPECT_TRUE(outage.complete) << "cycle " << i;
    EXPECT_EQ(outage.mttr.count, 1u);
  }
  EXPECT_EQ(w.msp1()->crash_generation(), static_cast<uint64_t>(kCycles));
  // statusz counts every recovery: the boot plus one per crash.
  EXPECT_NE(w.msp1()->DumpStatusz().find(
                "\"recoveries\":" + std::to_string(kCycles + 1)),
            std::string::npos);
  // A request still works after the storm.
  Bytes reply;
  ASSERT_TRUE(client
                  ->Call(&session, "ServiceMethod1", MakePayload(100, 99),
                         &reply)
                  .ok());
  w.Shutdown();
}

}  // namespace
}  // namespace msplog
