// Tests for orphan detection and recovery (§3.1, §4.1, §4.2): locally
// optimistic logging between two MSPs in one service domain, orphan
// creation by crashing the callee with unflushed log records, EOS records,
// shared-variable undo along the backward write chain, and crashes layered
// on top of orphan recoveries.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "log/log_scanner.h"
#include "msp/log_inspect.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class OrphanTest : public ::testing::Test {
 protected:
  OrphanTest()
      : env_(0.0), net_(&env_), disk_a_(&env_, "da"), disk_b_(&env_, "db") {}

  void SetUp() override {
    directory_.Assign("alpha", "domA");
    directory_.Assign("beta", "domA");  // same domain: optimistic messages
    alpha_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_,
                                   Config("alpha"));
    beta_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_,
                                  Config("beta"));

    // beta: a session counter and an echo.
    beta_->RegisterMethod("bcounter",
                          [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                            Bytes cur = ctx->GetSessionVar("n");
                            int n = cur.empty() ? 0 : std::stoi(cur);
                            ctx->SetSessionVar("n", std::to_string(n + 1));
                            *r = std::to_string(n + 1);
                            return Status::OK();
                          });
    beta_->RegisterMethod("becho",
                          [](ServiceContext*, const Bytes& a, Bytes* r) {
                            *r = "beta:" + a;
                            return Status::OK();
                          });

    // alpha: relays to beta; variants for the orphan scenarios.
    alpha_->RegisterSharedVariable("X", "clean");
    alpha_->RegisterMethod(
        "relay_count", [](ServiceContext* ctx, const Bytes&, Bytes* r) {
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "bcounter", "", &reply));
          *r = "relayed:" + reply;
          return Status::OK();
        });
    alpha_->RegisterMethod(
        "poison_gated", [this](ServiceContext* ctx, const Bytes&, Bytes* r) {
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "becho", "dep", &reply));
          MSPLOG_RETURN_IF_ERROR(ctx->WriteShared("X", "poisoned"));
          rewrites_.fetch_add(1);
          // Hold the method here (normal execution only) until the test
          // opens the gate or alpha crashes under it; replay / live
          // continuation never blocks because the gate is left open.
          while (!ctx->in_replay() && gate_.load() == 0 && alpha_->running()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          *r = "done";
          return Status::OK();
        });
    alpha_->RegisterMethod("read_x",
                           [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                             return ctx->ReadShared("X", r);
                           });

    ASSERT_TRUE(beta_->Start().ok());
    ASSERT_TRUE(alpha_->Start().ok());
  }

  void TearDown() override {
    gate_.store(1);
    if (alpha_) alpha_->Shutdown();
    if (beta_) beta_->Shutdown();
  }

  static MspConfig Config(const std::string& id) {
    MspConfig c;
    c.id = id;
    c.mode = RecoveryMode::kLogBased;
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 0;
    c.shared_var_checkpoint_threshold_writes = 0;
    c.flush_timeout_ms = 20;
    return c;
  }

  void CrashAndRestartBeta() {
    beta_->Crash();
    ASSERT_TRUE(beta_->Start().ok());
  }

  template <typename Pred>
  bool LogContains(SimDisk* disk, const std::string& file, Pred pred) {
    LogScanner sc(disk, file, 0, disk->FileSize(file));
    LogRecord r;
    while (sc.Next(&r).ok()) {
      if (pred(r)) return true;
    }
    return false;
  }

  bool LogContainsEos(SimDisk* disk, const std::string& file) {
    return LogContains(disk, file, [](const LogRecord& r) {
      return r.type == LogRecordType::kEos;
    });
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_;
  SimDisk disk_b_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> alpha_;
  std::unique_ptr<Msp> beta_;
  std::atomic<int> gate_{0};
  std::atomic<int> rewrites_{0};
};

TEST_F(OrphanTest, CalleeCrashOrphansCallerWhichRecoversExactlyOnce) {
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;

  // Establish the session with one clean (flushed) request.
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:1");

  // Crash beta at a moment when alpha holds an unflushed dependency on it.
  // We use a dedicated request: beta's receive record for bcounter #2 is
  // volatile (optimistic intra-domain exchange) until alpha's reply to the
  // end client forces the distributed flush — so crash beta from a side
  // thread while alpha is between the call and the flush. To make this
  // deterministic we instead crash beta right after the request completes:
  // alpha's NEXT request will carry the (now orphan) dependency only if it
  // was not yet flushed, so here we verify the flush-failure path directly:
  // send the request and crash beta concurrently.
  std::thread crasher([&] {
    // Give alpha time to send the call and receive beta's optimistic reply.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    CrashAndRestartBeta();
  });
  Status st = client.Call(&session, "relay_count", "", &reply);
  crasher.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Whatever interleaving happened, exactly-once must hold: the counter at
  // beta is 2 — not 1 (lost) and not 3 (duplicated).
  EXPECT_EQ(reply, "relayed:2");

  // And the system remains fully operational afterwards.
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:3");
}

TEST_F(OrphanTest, SharedVariableOrphanIsUndoneByReader) {
  ClientEndpoint c1(&env_, &net_, "cli1");
  ClientEndpoint c2(&env_, &net_, "cli2");
  auto s2 = c2.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(c2.Call(&s2, "read_x", "", &reply).ok());
  EXPECT_EQ(reply, "clean");

  // Session 1 calls beta then writes X = "poisoned" and parks at the gate,
  // holding an unflushed dependency on beta inside X's DV.
  std::thread t1([&] {
    auto s1 = c1.StartSession("alpha");
    Bytes r;
    Status st = c1.Call(&s1, "poison_gated", "", &r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  // Wait until the write happened.
  while (rewrites_.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Beta crashes losing its buffered records; its recovery broadcast makes
  // X's value an orphan at alpha.
  CrashAndRestartBeta();
  // Give the announce time to land.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Session 2 reads X: the reader itself must roll the variable back along
  // the backward chain to the most recent non-orphan value (§4.2).
  ASSERT_TRUE(c2.Call(&s2, "read_x", "", &reply).ok());
  EXPECT_EQ(reply, "clean");

  // Open the gate: session 1 finishes; its reply flush fails (orphan), it
  // replays, re-calls beta and re-writes X exactly once.
  gate_.store(1);
  t1.join();
  ASSERT_TRUE(c2.Call(&s2, "read_x", "", &reply).ok());
  EXPECT_EQ(reply, "poisoned");
  EXPECT_GE(env_.stats().orphans_detected.load(), 1u);
}

TEST_F(OrphanTest, OrphanRecoveryWritesEosRecord) {
  ClientEndpoint c1(&env_, &net_, "cli1");
  std::thread t1([&] {
    auto s1 = c1.StartSession("alpha");
    Bytes r;
    (void)c1.Call(&s1, "poison_gated", "", &r);
  });
  while (rewrites_.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CrashAndRestartBeta();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate_.store(1);
  t1.join();
  // Orphan recovery of session 1 must have cut at the orphan ReplyReceive
  // and logged an EOS record pointing back to it (§4.1).
  ASSERT_TRUE(alpha_->log()->FlushAll().ok());
  EXPECT_TRUE(LogContainsEos(&disk_a_, "alpha.log"));
}

TEST_F(OrphanTest, CallerCrashReplayCutsOrphanAndRecordsOrphanedFate) {
  ClientEndpoint c1(&env_, &net_, "cli1");
  auto s1 = c1.StartSession("alpha");
  const std::string id = s1.session_id;
  std::thread t1([&] {
    Bytes r;
    Status st = c1.Call(&s1, "poison_gated", "", &r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  // 1. alpha has logged beta's optimistic reply once the method writes X;
  // make alpha's records durable while beta's stay volatile.
  while (rewrites_.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(alpha_->log()->FlushAll().ok());
  // 2. beta loses the state alpha's logged reply depends on. alpha logs the
  // recovered state number it announces while the session is still busy;
  // flush until that record is durable.
  CrashAndRestartBeta();
  auto beta_epoch1_recovered = [](const LogRecord& r) {
    return r.type == LogRecordType::kRecoveredState && r.peer == "beta" &&
           r.peer_epoch == 1;
  };
  while (!LogContains(&disk_a_, "alpha.log", beta_epoch1_recovered)) {
    ASSERT_TRUE(alpha_->log()->FlushAll().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // 3. alpha crashes; the parked execution sees it and dies without a
  // trace. The crash replay finds the logged reply orphaned, cuts an EOS
  // there and continues live, through the now open gate.
  alpha_->Crash();
  gate_.store(1);
  ASSERT_TRUE(alpha_->Start().ok());
  t1.join();

  // The reply can beat the replay's entry in the record: wait for the view.
  obs::OutageReport view;
  for (int i = 0; i < 10000; ++i) {
    view = alpha_->LastRecoveryTimeline().Outage();
    if (view.complete) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(view.valid);
  ASSERT_TRUE(view.complete);
  ASSERT_EQ(view.sessions.size(), 1u);
  EXPECT_EQ(view.sessions[0].session_id, id);
  EXPECT_EQ(view.sessions[0].fate, "orphaned");

  // The log alone tells the same story: an EOS written after the crash.
  ASSERT_TRUE(alpha_->log()->FlushAll().ok());
  const obs::FlightBundle bundle =
      env_.flight_recorder().LatestBundleFor("alpha");
  ASSERT_TRUE(bundle.frozen);
  LogInspectOptions opts;
  opts.crash = bundle.Facts();
  LogInspectReport offline;
  ASSERT_TRUE(InspectLogImage(&disk_a_, "alpha.log", opts, &offline).ok());
  EXPECT_EQ(offline.FateMismatches(view), std::vector<std::string>());
}

// The outage view keeps its crash however many bundles freeze before the
// restart: the flight recorder's history is bounded and shared, so alpha's
// bundle is evicted by beta's crashes, but alpha kept the facts itself.
TEST_F(OrphanTest, OutageJoinSurvivesBundleEvictionBeforeRestart) {
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  alpha_->Crash();
  for (size_t k = 0; k < obs::FlightRecorder::kMaxBundles; ++k) {
    CrashAndRestartBeta();
  }
  ASSERT_FALSE(env_.flight_recorder().LatestBundleFor("alpha").frozen);
  ASSERT_TRUE(alpha_->Start().ok());

  const obs::RecoveryTimeline tl = alpha_->LastRecoveryTimeline();
  EXPECT_EQ(tl.crash_generation, 1u);
  ASSERT_EQ(tl.inflight.size(), 1u);
  EXPECT_EQ(tl.inflight[0].session_id, session.session_id);
  EXPECT_TRUE(tl.Outage().valid);
}

TEST_F(OrphanTest, RepeatedCalleeCrashesDisjointOrphanRecoveries) {
  // Fig. 11 "disjointed": each crash orphans the session once; recoveries
  // stack up along the log with disjoint (orphan, EOS) pairs.
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  int expected = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
    ++expected;
    EXPECT_EQ(reply, "relayed:" + std::to_string(expected));
    std::thread crasher([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      CrashAndRestartBeta();
    });
    Status st = client.Call(&session, "relay_count", "", &reply);
    crasher.join();
    ASSERT_TRUE(st.ok());
    ++expected;
    EXPECT_EQ(reply, "relayed:" + std::to_string(expected));
  }
}

TEST_F(OrphanTest, IdleSessionIsCheckedOnRecoveryAnnounce) {
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  // The session is idle. Crash beta; the recovery announce must trigger an
  // orphan check on the idle session without any new request (§4.1). The
  // first request was flushed (reply to end client), so the session is NOT
  // an orphan — but the check must run and leave the session serviceable.
  CrashAndRestartBeta();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:2");
}

TEST_F(OrphanTest, CallerCrashAfterOrphanRecoveryReplaysCleanly) {
  // Orphan recovery writes EOS records; if the caller itself then crashes,
  // the analysis scan must skip the (orphan, EOS) range (§4.3).
  ClientEndpoint c1(&env_, &net_, "cli1");
  auto s1 = c1.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(c1.Call(&s1, "relay_count", "", &reply).ok());
  std::thread crasher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    CrashAndRestartBeta();
  });
  Status st = c1.Call(&s1, "relay_count", "", &reply);
  crasher.join();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reply, "relayed:2");

  // Now crash alpha. Its recovery must replay the session without tripping
  // over the skipped records.
  alpha_->Crash();
  ASSERT_TRUE(alpha_->Start().ok());
  ASSERT_TRUE(c1.Call(&s1, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:3");
}

TEST_F(OrphanTest, BothMspsCrashConcurrently) {
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  }
  alpha_->Crash();
  beta_->Crash();
  ASSERT_TRUE(beta_->Start().ok());
  ASSERT_TRUE(alpha_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:4");
}

TEST_F(OrphanTest, WatermarkSkipsRepeatedPeerFlushes) {
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  // Re-request the same reply (duplicate): the buffered reply resend flushes
  // per the session's DV, but the dependencies were already flushed — the
  // watermark should avoid a second flush round trip to beta.
  auto before = env_.stats().Snap();
  session.next_seqno = 1;
  ASSERT_TRUE(client.Call(&session, "relay_count", "", &reply).ok());
  EXPECT_EQ(reply, "relayed:1");
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.disk_flushes, before.disk_flushes);
}

}  // namespace
}  // namespace msplog
