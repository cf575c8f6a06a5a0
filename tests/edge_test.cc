// Edge-case tests: determinism-contract violations are detected, reordering
// networks, scanner corner cases, concurrent kvdb use, recovery of empty /
// padding-only logs, a reply whose flush times out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "db/kvdb.h"
#include "log/log_file.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

TEST(DeterminismContractTest, NondeterministicMethodIsDetectedOnReplay) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  Msp msp(&env, &net, &disk, &dir, c);
  // A method that violates the contract: it consults mutable state outside
  // the ServiceContext, so re-execution takes a different path.
  static std::atomic<int> evil_counter{0};
  msp.RegisterSharedVariable("A", "a");
  msp.RegisterSharedVariable("B", "b");
  msp.RegisterMethod("evil", [](ServiceContext* ctx, const Bytes&, Bytes* r) {
    Bytes v;
    // First execution reads A; any re-execution reads B.
    MSPLOG_RETURN_IF_ERROR(
        ctx->ReadShared(evil_counter.fetch_add(1) == 0 ? "A" : "B", &v));
    *r = v;
    return Status::OK();
  });
  ASSERT_TRUE(msp.Start().ok());
  ClientEndpoint client(&env, &net, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "evil", "", &reply).ok());
  EXPECT_EQ(reply, "a");

  msp.Crash();
  ASSERT_TRUE(msp.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The infrastructure must DETECT the divergence rather than silently
  // feeding the wrong logged value to the wrong read.
  EXPECT_GE(env.stats().replay_misalignments.load(), 1u);
  msp.Shutdown();
}

TEST(ReorderingNetworkTest, ExactlyOnceWithJitter) {
  SimEnvironment env(0.02);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  Msp msp(&env, &net, &disk, &dir, c);
  msp.RegisterMethod("counter", [](ServiceContext* ctx, const Bytes&,
                                   Bytes* r) {
    Bytes cur = ctx->GetSessionVar("n");
    int n = cur.empty() ? 0 : std::stoi(cur);
    ctx->SetSessionVar("n", std::to_string(n + 1));
    *r = std::to_string(n + 1);
    return Status::OK();
  });
  ASSERT_TRUE(msp.Start().ok());
  FaultPlan jitter;
  jitter.reorder_jitter_ms = 5.0;  // messages can overtake one another
  jitter.duplicate_prob = 0.3;
  net.SetFaults("cli", "alpha", jitter);
  net.SetFaults("alpha", "cli", jitter);
  ClientOptions copts;
  copts.resend_timeout_ms = 30;
  ClientEndpoint client(&env, &net, "cli", copts);
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));
  }
  msp.Shutdown();
}

TEST(ScannerEdgeTest, StartInsidePaddingSkipsForward) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  LogRecord r;
  r.type = LogRecordType::kRequestReceive;
  r.session_id = "s";
  r.seqno = 1;
  r.payload = MakePayload(100);
  uint64_t l1 = log.Append(r);
  ASSERT_TRUE(log.FlushAll().ok());
  r.seqno = 2;
  uint64_t l2 = log.Append(r);
  ASSERT_TRUE(log.FlushAll().ok());
  // Start the scan in the padding between record 1's end (~l1 + 140) and
  // record 2 at the next sector boundary.
  LogScanner scanner(&disk, "log", l1 + 300, disk.FileSize("log"));
  LogRecord out;
  ASSERT_TRUE(scanner.Next(&out).ok());
  EXPECT_EQ(out.lsn, l2);
  EXPECT_EQ(out.seqno, 2u);
}

TEST(ScannerEdgeTest, EmptyAndPaddingOnlyLogs) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  {
    LogScanner scanner(&disk, "missing", 0, 0);
    LogRecord out;
    EXPECT_TRUE(scanner.Next(&out).IsNotFound());
  }
  ASSERT_TRUE(disk.WriteAt("zeros", 0, Bytes(4096, '\0')).ok());
  LogScanner scanner(&disk, "zeros", 0, 4096);
  LogRecord out;
  EXPECT_TRUE(scanner.Next(&out).IsNotFound());
}

TEST(KvDbConcurrencyTest, ParallelWritersAllLand) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  KvDb db(&env, &disk, "db");
  ASSERT_TRUE(db.Recover().ok());
  constexpr int kThreads = 4;
  constexpr int kKeys = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(db.TxnPut("t" + std::to_string(t) + "/k" +
                                  std::to_string(k),
                              MakePayload(100, t * 1000 + k))
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(db.KeyCount(), static_cast<size_t>(kThreads * kKeys));
  // Every write survives a reopen.
  KvDb db2(&env, &disk, "db");
  ASSERT_TRUE(db2.Recover().ok());
  EXPECT_EQ(db2.KeyCount(), static_cast<size_t>(kThreads * kKeys));
  Bytes v;
  ASSERT_TRUE(db2.TxnGet("t2/k7", &v).ok());
  EXPECT_EQ(v, MakePayload(100, 2007));
}

TEST(RestartAfterGracefulShutdownTest, FullStateRecovered) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  Msp msp(&env, &net, &disk, &dir, c);
  msp.RegisterSharedVariable("acc", "0");
  msp.RegisterMethod("add", [](ServiceContext* ctx, const Bytes& a, Bytes* r) {
    Bytes cur;
    MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &cur));
    MSPLOG_RETURN_IF_ERROR(ctx->WriteShared(
        "acc", std::to_string(std::stol(cur) + std::stol(Bytes(a)))));
    *r = "ok";
    return Status::OK();
  });
  ASSERT_TRUE(msp.Start().ok());
  ClientEndpoint client(&env, &net, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client.Call(&session, "add", "3", &reply).ok());
  }
  msp.Shutdown();  // graceful: flushes everything
  ASSERT_TRUE(msp.Start().ok());
  auto v = msp.PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "21");
  // Graceful shutdown loses nothing, so zero requests needed live re-run:
  // replay is fed fully from the durable log.
  ASSERT_TRUE(client.Call(&session, "add", "3", &reply).ok());
  v = msp.PeekSharedValue("acc");
  EXPECT_EQ(*v, "24");
  msp.Shutdown();
}

TEST(ColdStartTest, StartCrashStartWithNoTrafficIsClean) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  Msp msp(&env, &net, &disk, &dir, c);
  ASSERT_TRUE(msp.Start().ok());
  msp.Crash();
  ASSERT_TRUE(msp.Start().ok());
  msp.Crash();
  ASSERT_TRUE(msp.Start().ok());
  EXPECT_EQ(msp.epoch(), 3u);
  EXPECT_EQ(msp.SessionCount(), 0u);
  msp.Shutdown();
}

// The request ran to completion before its reply's pessimistic flush timed
// out, so the client's retry must be answered from the buffered reply, not
// run the request a second time.
TEST(FlushTimeoutTest, TimedOutReplyIsResentNotReExecuted) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk_a(&env, "da"), disk_b(&env, "db");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  dir.Assign("beta", "dom");
  MspConfig ca, cb;
  ca.id = "alpha";
  cb.id = "beta";
  ca.checkpoint_daemon = cb.checkpoint_daemon = false;
  std::atomic<int> executions{0};  // outlives the servers that count on it
  Msp alpha(&env, &net, &disk_a, &dir, ca);
  Msp beta(&env, &net, &disk_b, &dir, cb);
  beta.RegisterMethod("echo", [](ServiceContext*, const Bytes& a, Bytes* r) {
    *r = a;
    return Status::OK();
  });
  alpha.RegisterSharedVariable("n", "0");
  alpha.RegisterMethod("bump", [&](ServiceContext* ctx, const Bytes&,
                                   Bytes* r) {
    // The session's DV now names beta: the reply's flush has a leg there.
    Bytes echoed;
    MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "echo", "", &echoed));
    // The first execution loses every flush request it sends to beta.
    if (executions.fetch_add(1) == 0) {
      net.SetFaults("alpha", "beta", FaultPlan{/*drop_prob=*/1.0});
    }
    return ctx->UpdateShared(
        "n", [](const Bytes& v) { return std::to_string(std::stoi(v) + 1); },
        r);
  });
  ASSERT_TRUE(beta.Start().ok());
  ASSERT_TRUE(alpha.Start().ok());

  ClientOptions copt;
  copt.max_sends = 1000000;  // keep resending seqno 1 through the outage
  ClientEndpoint client(&env, &net, "cli", copt);
  auto session = client.StartSession("alpha");
  Bytes reply;
  Status call_st;
  std::thread caller(
      [&] { call_st = client.Call(&session, "bump", "", &reply); });

  // Heal the link only after the first reply flush has given up.
  auto flush_timed_out = [&] {
    for (const obs::TraceEvent& e : env.tracer().Events()) {
      if (e.type == obs::TraceEventType::kDistFlushEnd && e.actor == "alpha" &&
          e.detail.find("TimedOut") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!flush_timed_out() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(flush_timed_out());
  net.ClearFaults();
  caller.join();

  ASSERT_TRUE(call_st.ok()) << call_st.ToString();
  EXPECT_EQ(reply, "1");
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(*alpha.PeekSharedValue("n"), "1");
  alpha.Shutdown();
  beta.Shutdown();
}

}  // namespace
}  // namespace msplog
