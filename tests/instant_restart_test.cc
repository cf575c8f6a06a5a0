// Instant-restart tests (§4.3 + the phased RecoveryCoordinator): the server
// opens for traffic after the analysis scan, before any session replays; a
// request for a not-yet-recovered session triggers an on-demand replay that
// jumps the background drain queue and still serializes after the session's
// replayed history; a second crash in the middle of the incremental drain
// recovers cleanly with every outage fate resolved; and checkpoint-driven
// log archiving keeps recovery working off the punched live log while the
// archived segments still merge into a clean, inspectable image.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "audit/invariants.h"
#include "log/log_file.h"
#include "msp/log_inspect.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class InstantRestartTest : public ::testing::Test {
 protected:
  InstantRestartTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {
    audit::InvariantRegistry::Instance().ResetForTest();
  }

  void TearDown() override {
    if (msp_) msp_->Shutdown();
    audit::InvariantRegistry::Instance().ResetForTest();
  }

  MspConfig BaseConfig() {
    MspConfig c;
    c.id = "alpha";
    c.mode = RecoveryMode::kLogBased;
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 0;
    c.shared_var_checkpoint_threshold_writes = 0;
    return c;
  }

  void StartMsp(MspConfig c) {
    directory_.Assign(c.id, "domA");
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    Register(msp_.get());
    ASSERT_TRUE(msp_->Start().ok());
  }

  static void Register(Msp* msp) {
    // A per-session counter whose replay is deliberately slow: the sleep
    // widens the background-drain window so the tests can deterministically
    // land a live request on a session the drain has not reached yet.
    msp->RegisterMethod(
        "slow_counter", [](ServiceContext* ctx, const Bytes&, Bytes* result) {
          if (ctx->in_replay()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          Bytes cur = ctx->GetSessionVar("n");
          int n = cur.empty() ? 0 : std::stoi(cur);
          ctx->SetSessionVar("n", std::to_string(n + 1));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
  }

  /// Wait until `n` more sessions than `before` have finished their crash
  /// replay (drain or on demand).
  void WaitForReplays(uint64_t before, uint64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (env_.stats().sessions_recovered.load() - before < n) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

// A request for a session the background drain has not replayed yet is
// admitted immediately (no Busy), triggers an on-demand replay, and the new
// request serializes strictly after the session's replayed history — the
// counter continues from its pre-crash value.
TEST_F(InstantRestartTest, OnDemandAdmissionJumpsTheDrainQueue) {
  MspConfig c = BaseConfig();
  // One pool thread = one drain pump replaying sessions strictly in SJF
  // order, so the heaviest session is deterministically last in the queue.
  c.thread_pool_size = 1;
  StartMsp(c);

  ClientEndpoint client(&env_, &net_, "cli");
  std::vector<ClientSession> sessions;
  Bytes reply;
  for (int s = 0; s < 6; ++s) {
    sessions.push_back(client.StartSession("alpha"));
    for (int i = 0; i <= s; ++i) {
      ASSERT_TRUE(
          client.Call(&sessions.back(), "slow_counter", "", &reply).ok());
    }
  }
  ASSERT_EQ(reply, "6");  // heaviest session ran 6 requests

  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());

  // The drain (2ms per replayed request) is still working through the
  // lighter sessions; the heaviest drains last. Its request must not wait
  // for the whole queue: the admission gate replays just this session.
  ASSERT_TRUE(client.Call(&sessions.back(), "slow_counter", "", &reply).ok());
  EXPECT_EQ(reply, "7");  // full history replayed, then the new request

  obs::RecoveryTimeline tl = msp_->LastRecoveryTimeline();
  EXPECT_EQ(tl.sessions_to_recover, 6u);
  EXPECT_GT(tl.open_for_traffic_ms, 0.0);
  EXPECT_GE(tl.on_demand_replays, 1u);

  // Every other session finishes its drain replay and continues correctly.
  for (int s = 0; s < 5; ++s) {
    ASSERT_TRUE(client.Call(&sessions[s], "slow_counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(s + 2));
  }
  tl = msp_->LastRecoveryTimeline();
  EXPECT_GE(tl.session_replays.size(), 6u);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

// A second crash while the incremental drain is mid-flight: the next
// recovery must converge — every session servable with exactly-once
// semantics intact, every outage fate resolved, and zero audit violations.
TEST_F(InstantRestartTest, RecrashDuringIncrementalRecovery) {
  MspConfig c = BaseConfig();
  c.thread_pool_size = 1;  // slow sequential drain → the re-crash lands
                           // while some sessions are still pending
  StartMsp(c);

  ClientEndpoint client(&env_, &net_, "cli");
  std::vector<ClientSession> sessions;
  Bytes reply;
  for (int s = 0; s < 5; ++s) {
    sessions.push_back(client.StartSession("alpha"));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          client.Call(&sessions.back(), "slow_counter", "", &reply).ok());
    }
  }

  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  // Let the drain claim its first session (3 replayed requests ≈ 6ms),
  // then crash again mid-drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_EQ(msp_->epoch(), 3u);

  // Exactly-once across the double crash: each counter continues from 3.
  for (auto& s : sessions) {
    ASSERT_TRUE(client.Call(&s, "slow_counter", "", &reply).ok());
    EXPECT_EQ(reply, "4");
  }

  // All five sessions were durably logged before the first crash, so the
  // outage join must resolve every fate (no "pending", no "never-logged").
  const obs::OutageReport report = msp_->LastRecoveryTimeline().Outage();
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.epoch, 3u);
  EXPECT_EQ(report.sessions.size(), 5u);
  for (const auto& f : report.sessions) {
    EXPECT_TRUE(f.fate == "replayed" || f.fate == "orphaned")
        << f.session_id << " fate=" << f.fate;
    EXPECT_GE(f.time_to_servable_ms, 0.0);
  }
  EXPECT_EQ(report.mttr.count, 5u);

  // Offline cross-check (the `msplog_inspect --report` contract): re-derive
  // every fate from the frozen flight bundle + raw log image alone. The
  // re-crash-during-recovery log must tell the same story as the live join.
  const obs::FlightBundle bundle =
      env_.flight_recorder().LatestBundleFor("alpha");
  ASSERT_TRUE(bundle.frozen);
  EXPECT_EQ(bundle.generation, 2u);  // the mid-drain crash
  LogInspectOptions opts;
  opts.crash = bundle.Facts();
  LogInspectReport offline;
  ASSERT_TRUE(
      InspectLogImage(&disk_, msp_->log()->file_name(), opts, &offline).ok());
  EXPECT_EQ(offline.FateMismatches(report), std::vector<std::string>());
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

// The log is read once per recovery: every replay, drain and on demand,
// parses its records from the bytes the analysis scan read. The sessions'
// requests interleave in the log, and two sessions replay from a session
// checkpoint, which comes from the same bytes. From the return of Start()
// to the end of the drain the log disk serves no read at all.
TEST_F(InstantRestartTest, ReplaysReadNothingFromDisk) {
  MspConfig c = BaseConfig();
  c.thread_pool_size = 2;
  StartMsp(c);

  ClientEndpoint client(&env_, &net_, "cli");
  constexpr int kSessions = 6;
  constexpr int kRounds = 5;
  std::vector<ClientSession> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(client.StartSession("alpha"));
  }
  Bytes reply;
  for (int r = 0; r < kRounds; ++r) {
    for (auto& s : sessions) {
      ASSERT_TRUE(client.Call(&s, "slow_counter", "", &reply).ok());
    }
    if (r == 2) {
      for (int s = 0; s < 2; ++s) {
        ASSERT_TRUE(msp_->ForceCheckpoint(
                            CheckpointTarget::Session(sessions[s].session_id))
                        .ok());
      }
    }
  }

  msp_->Crash();
  const uint64_t recovered_before = env_.stats().sessions_recovered.load();
  ASSERT_TRUE(msp_->Start().ok());
  const uint64_t reads_at_open = env_.stats().disk_reads.load();

  // An on-demand admission reads from the same bytes as the drain.
  ASSERT_TRUE(client.Call(&sessions.back(), "slow_counter", "", &reply).ok());
  EXPECT_EQ(reply, std::to_string(kRounds + 1));
  WaitForReplays(recovered_before, kSessions);
  EXPECT_EQ(env_.stats().disk_reads.load(), reads_at_open);

  // Every session continues at its exact next seqno and state.
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(client.Call(&sessions[s], "slow_counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(kRounds + (s == kSessions - 1 ? 2 : 1)));
  }
  const obs::RecoveryTimeline tl = msp_->LastRecoveryTimeline();
  EXPECT_EQ(tl.sessions_to_recover, static_cast<uint64_t>(kSessions));
  EXPECT_GE(tl.on_demand_replays, 1u);
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

// Once every session has replayed, the recovery drops the scanned bytes. A
// later lazy orphan replay, forced by a peer crash, reads its pre-restart
// records from disk and its post-restart records from the live log, and
// still converges to the exact state.
TEST_F(InstantRestartTest, LazyOrphanReplayAfterTheDrainReadsFromDisk) {
  SimDisk disk_b(&env_, "db");
  MspConfig cb = BaseConfig();
  cb.id = "beta";
  cb.flush_timeout_ms = 20;
  directory_.Assign("beta", "domA");
  Msp beta(&env_, &net_, &disk_b, &directory_, cb);
  beta.RegisterMethod("bcounter",
                      [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                        Bytes cur = ctx->GetSessionVar("n");
                        int n = cur.empty() ? 0 : std::stoi(cur);
                        ctx->SetSessionVar("n", std::to_string(n + 1));
                        *r = std::to_string(n + 1);
                        return Status::OK();
                      });
  ASSERT_TRUE(beta.Start().ok());

  MspConfig c = BaseConfig();
  c.flush_timeout_ms = 20;
  directory_.Assign(c.id, "domA");
  msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
  Register(msp_.get());
  // Counts locally, then calls beta and, in normal execution, parks until
  // the test opens the gate: the reply from beta stays an unflushed
  // dependency until then.
  std::atomic<bool> gate{true}, held{false};
  msp_->RegisterMethod(
      "relay_gated", [&](ServiceContext* ctx, const Bytes&, Bytes* r) {
        Bytes cur = ctx->GetSessionVar("n");
        const int n = (cur.empty() ? 0 : std::stoi(cur)) + 1;
        ctx->SetSessionVar("n", std::to_string(n));
        Bytes reply;
        MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "bcounter", "", &reply));
        if (!ctx->in_replay()) {
          held.store(true);
          while (gate.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        *r = std::to_string(n) + "/" + reply;
        return Status::OK();
      });
  ASSERT_TRUE(msp_->Start().ok());

  ClientEndpoint client(&env_, &net_, "cli");
  ClientSession session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "slow_counter", "", &reply).ok());
  }
  msp_->Crash();
  const uint64_t recovered_before = env_.stats().sessions_recovered.load();
  ASSERT_TRUE(msp_->Start().ok());
  WaitForReplays(recovered_before, 1);

  // Post-restart: the session takes an unflushed dependency on beta, and
  // beta crashes before flushing it.
  Status call_st;
  std::thread caller(
      [&] { call_st = client.Call(&session, "relay_gated", "", &reply); });
  while (!held.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  beta.Crash();
  const Status beta_st = beta.Start();
  const uint64_t reads_before = env_.stats().disk_reads.load();
  gate.store(false);
  caller.join();
  ASSERT_TRUE(beta_st.ok()) << beta_st.ToString();
  // beta lost the session, so it replays nothing: every read below is the
  // orphan replay's.
  EXPECT_EQ(beta.LastRecoveryTimeline().sessions_to_recover, 0u);
  ASSERT_TRUE(call_st.ok()) << call_st.ToString();
  EXPECT_EQ(reply, "4/1");

  // The orphan replay re-ran all four requests, the three pre-restart ones
  // from disk.
  EXPECT_GT(env_.stats().disk_reads.load(), reads_before);
  const obs::RecoveryTimeline tl = msp_->LastRecoveryTimeline();
  bool lazy = false;
  for (const auto& r : tl.session_replays) {
    if (!r.from_crash && r.converged && r.requests_replayed >= 4) lazy = true;
  }
  EXPECT_TRUE(lazy);
  EXPECT_GE(tl.orphan_events, 1u);

  ASSERT_TRUE(client.Call(&session, "slow_counter", "", &reply).ok());
  EXPECT_EQ(reply, "5");
  ASSERT_TRUE(client.Call(&session, "relay_gated", "", &reply).ok());
  EXPECT_EQ(reply, "6/2");
  msp_->Shutdown();
  beta.Shutdown();
  EXPECT_EQ(audit::InvariantRegistry::Instance().total_violations(), 0u);
}

// Checkpoint-driven archiving: closed log ranges below the reclamation
// watermark move to archive segments instead of being punched away.
// Recovery keeps working off the punched live log; the live image alone
// passes inspection ("no live session cut"); and overlaying the archived
// segments yields the full history, also violation-free. Exports the image
// + segments + manifest so CI can re-check with the offline CLI.
TEST_F(InstantRestartTest, ArchivedSegmentsMergeIntoCleanImage) {
  MspConfig c = BaseConfig();
  c.archive_log = true;
  StartMsp(c);

  ClientEndpoint client(&env_, &net_, "cli");
  ClientSession session = client.StartSession("alpha");
  Bytes reply;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(client.Call(&session, "slow_counter", "", &reply).ok());
    }
    ASSERT_TRUE(
        msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id))
            .ok());
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  }

  const LogExtents extents = msp_->log()->Extents();
  EXPECT_GT(extents.archived_lsn, 0u);
  EXPECT_EQ(extents.archived_lsn, extents.reclaimed_lsn);
  std::vector<LogArchiveSegment> segments =
      LogFile::ListArchiveSegments(&disk_, "alpha.log");
  ASSERT_FALSE(segments.empty());

  // Recovery works off the punched live log: the scan starts at the MSP
  // checkpoint's min-recovery LSN, above everything archived.
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "slow_counter", "", &reply).ok());
  EXPECT_EQ(reply, "81");
  ASSERT_TRUE(msp_->log()->FlushAll().ok());

  Bytes live;
  const uint64_t live_size = disk_.FileSize("alpha.log");
  ASSERT_GT(live_size, 0u);
  ASSERT_TRUE(disk_.ReadAt("alpha.log", 0, live_size, &live).ok());

  // The punched live image alone: no live session was cut — its first
  // surviving record sits at or before the newest MSP checkpoint's
  // min-recovery LSN (that check is one of the walked invariants).
  // Inspected as copies, which the running server cannot append to.
  ASSERT_TRUE(disk_.WriteAt("live.log", 0, live).ok());
  LogInspectOptions opts;
  LogInspectReport live_report;
  ASSERT_TRUE(InspectLogImage(&disk_, "live.log", opts, &live_report).ok());
  for (const auto& v : live_report.invariant_violations) {
    ADD_FAILURE() << "live image violation: " << v;
  }
  EXPECT_GT(live_report.newest_msp_checkpoint_min_lsn, 0u);
  EXPECT_LE(live_report.first_lsn, live_report.newest_msp_checkpoint_min_lsn);

  // Overlay the archived segments at their original offsets: the merged
  // image holds the full history from (near) LSN zero and still passes
  // every invariant.
  ASSERT_TRUE(disk_.WriteAt("merged.log", 0, live).ok());
  for (const LogArchiveSegment& seg : segments) {
    Bytes seg_bytes;
    ASSERT_TRUE(disk_.ReadAt(seg.file, 0, seg.bytes, &seg_bytes).ok());
    ASSERT_TRUE(disk_.WriteAt("merged.log", seg.base, seg_bytes).ok());
  }
  LogInspectReport merged_report;
  ASSERT_TRUE(
      InspectLogImage(&disk_, "merged.log", opts, &merged_report).ok());
  for (const auto& v : merged_report.invariant_violations) {
    ADD_FAILURE() << "merged image violation: " << v;
  }
  EXPECT_GT(merged_report.records, live_report.records);
  EXPECT_LT(merged_report.first_lsn, live_report.first_lsn);

  // ---- export artifacts for CI (image + archive segments + manifest) ----
  {
    std::ofstream lf("msplog_instant_archive_image.bin", std::ios::binary);
    ASSERT_TRUE(lf.good());
    lf.write(live.data(), static_cast<std::streamsize>(live.size()));
  }
  std::ofstream mf("msplog_instant_archive.manifest");
  ASSERT_TRUE(mf.good());
  for (const LogArchiveSegment& seg : segments) {
    Bytes seg_bytes;
    ASSERT_TRUE(disk_.ReadAt(seg.file, 0, seg.bytes, &seg_bytes).ok());
    const std::string name =
        "msplog_instant_archive_seg_" + std::to_string(seg.base) + ".bin";
    std::ofstream sf(name, std::ios::binary);
    ASSERT_TRUE(sf.good());
    sf.write(seg_bytes.data(), static_cast<std::streamsize>(seg_bytes.size()));
    mf << seg.base << " " << name << "\n";
  }
}

}  // namespace
}  // namespace msplog
