// Three-MSP chain tests: transitive dependency-vector propagation (Fig. 5)
// and recovery independence across service-domain boundaries (§3.1).
//
//   client -> A.relay -> B.relay -> C.count
//
// Intra-domain: a crash of C can transitively orphan B and A (their DVs
// carry C entries through B's replies). Cross-domain: the boundary stops
// both the DV propagation and the rollback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "msp/log_inspect.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "obs/trace.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class ChainTest : public ::testing::Test {
 protected:
  ChainTest()
      : env_(0.0), net_(&env_), disk_a_(&env_, "da"), disk_b_(&env_, "db"),
        disk_c_(&env_, "dc") {}

  void Build(const std::string& dom_a, const std::string& dom_b,
             const std::string& dom_c) {
    directory_.Assign("A", dom_a);
    directory_.Assign("B", dom_b);
    directory_.Assign("C", dom_c);
    MspConfig ca, cb, cc;
    ca.id = "A";
    cb.id = "B";
    cc.id = "C";
    ca.flush_timeout_ms = cb.flush_timeout_ms = cc.flush_timeout_ms = 20;
    a_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_, ca);
    b_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_, cb);
    c_ = std::make_unique<Msp>(&env_, &net_, &disk_c_, &directory_, cc);

    c_->RegisterMethod("count",
                       [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                         Bytes cur = ctx->GetSessionVar("n");
                         int n = cur.empty() ? 0 : std::stoi(cur);
                         ctx->SetSessionVar("n", std::to_string(n + 1));
                         *r = std::to_string(n + 1);
                         return Status::OK();
                       });
    b_->RegisterMethod(
        "brelay", [this](ServiceContext* ctx, const Bytes& arg, Bytes* r) {
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call("C", "count", arg, &reply));
          if (!ctx->in_replay() && b_gate_.load()) {
            b_held_.store(true);
            while (b_gate_.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          *r = "B(" + reply + ")";
          return Status::OK();
        });
    a_->RegisterMethod(
        "arelay", [this](ServiceContext* ctx, const Bytes& arg, Bytes* r) {
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call("B", "brelay", arg, &reply));
          if (!ctx->in_replay() && a_gate_.load()) {
            a_held_.store(true);
            while (a_gate_.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          *r = "A(" + reply + ")";
          return Status::OK();
        });
    ASSERT_TRUE(c_->Start().ok());
    ASSERT_TRUE(b_->Start().ok());
    ASSERT_TRUE(a_->Start().ok());
  }

  void TearDown() override {
    a_gate_.store(false);
    b_gate_.store(false);
    if (a_) a_->Shutdown();
    if (b_) b_->Shutdown();
    if (c_) c_->Shutdown();
  }

  void CrashAndRestartC() {
    c_->Crash();
    ASSERT_TRUE(c_->Start().ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_, disk_b_, disk_c_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> a_, b_, c_;
  std::atomic<bool> a_gate_{false}, a_held_{false};
  std::atomic<bool> b_gate_{false}, b_held_{false};
};

TEST_F(ChainTest, TransitiveDvPropagationIntraDomain) {
  Build("dom", "dom", "dom");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(1))");
  // A's session DV must transitively contain entries for B AND C (Fig. 5).
  // Observable via the recovered-state machinery: stop the world and check
  // the attached DVs reached the log.
  ASSERT_TRUE(a_->log()->FlushAll().ok());
}

TEST_F(ChainTest, LeafCrashTransitivelyOrphansWholeChainExactlyOnce) {
  Build("dom", "dom", "dom");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(1))");

  // Park A's session mid-request (after it received B's reply, which
  // carries B's and C's dependencies), crash C, release.
  a_gate_.store(true);
  a_held_.store(false);
  std::thread t([&] {
    while (!a_held_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    CrashAndRestartC();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a_gate_.store(false);
  });
  Status st = client.Call(&session, "arelay", "x", &reply);
  t.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Exactly-once through the whole chain: C's counter is 2, not 1 or 3.
  EXPECT_EQ(reply, "A(B(2))");
  EXPECT_GE(env_.stats().orphans_detected.load(), 1u);

  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(3))");
}

TEST_F(ChainTest, DomainBoundaryStopsRollback) {
  // A alone in its own domain; B and C share one. C's crash may orphan B,
  // but never A: B flushes (pessimistically) before every reply to A.
  Build("domA", "domBC", "domBC");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(1))");

  // Park B mid-request (it holds an unflushed dependency on C), crash C.
  b_gate_.store(true);
  b_held_.store(false);
  std::thread t([&] {
    while (!b_held_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    CrashAndRestartC();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    b_gate_.store(false);
  });
  Status st = client.Call(&session, "arelay", "x", &reply);
  t.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply, "A(B(2))");

  // Recovery independence (§3.1): recovery messages are broadcast only
  // within the service domain, so A never even learns about C's crash.
  auto table = a_->SnapshotRecoveredTable();
  for (const auto& [key, sn] : table.entries()) {
    EXPECT_NE(key.first, "C") << "A (cross-domain) learned about C's crash";
    EXPECT_NE(key.first, "B");
  }
  // And A's DVs never carried B/C entries: cross-domain messages are
  // DV-free; its log has no dependency on the other domain.
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(3))");
}

TEST_F(ChainTest, MiddleNodeCrashRecoversChain) {
  Build("dom", "dom", "dom");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  }
  b_->Crash();
  ASSERT_TRUE(b_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(4))");
}

// Acceptance: one client request's causal trace spans the whole A → B → C
// chain with correct parent links, the Chrome dump carries cross-server flow
// events, and the offline inspector replays C's physical log image (after a
// real crash/recovery cycle) with zero invariant violations. The trace dump
// and the log image are exported to the working directory so CI can run
// `msplog_inspect --self-check` over the same artifact and archive the trace.
TEST_F(ChainTest, DistributedTraceSpansChainAndLogImageSelfChecks) {
  Build("dom", "dom", "dom");
  env_.tracer().Clear();
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  }
  EXPECT_EQ(reply, "A(B(3))");

  // Exercise real crash recovery on the leaf, then one more request so the
  // post-crash epoch also appears in the log image.
  CrashAndRestartC();
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(4))");

  // ---- span tree: client root → A request span → B → C ----
  auto events = env_.tracer().Events();
  const obs::TraceEvent* root = nullptr;
  for (const auto& e : events) {
    if (e.type == obs::TraceEventType::kClientCallStart && e.actor == "cli") {
      root = &e;  // first call's root span
      break;
    }
  }
  ASSERT_NE(root, nullptr);
  const uint64_t trace = root->span.trace_id;
  ASSERT_NE(trace, 0u);
  EXPECT_EQ(root->span.span_id, trace);  // root span id doubles as trace id
  auto enqueue_of = [&](const std::string& actor) -> const obs::TraceEvent* {
    for (const auto& e : events) {
      if (e.type == obs::TraceEventType::kEnqueue && e.actor == actor &&
          e.span.trace_id == trace) {
        return &e;
      }
    }
    return nullptr;
  };
  const obs::TraceEvent* enq_a = enqueue_of("A");
  const obs::TraceEvent* enq_b = enqueue_of("B");
  const obs::TraceEvent* enq_c = enqueue_of("C");
  ASSERT_NE(enq_a, nullptr);
  ASSERT_NE(enq_b, nullptr);
  ASSERT_NE(enq_c, nullptr);  // the tree spans all three servers
  EXPECT_EQ(enq_a->span.parent_span_id, root->span.span_id);
  EXPECT_EQ(enq_b->span.parent_span_id, enq_a->span.span_id);
  EXPECT_EQ(enq_c->span.parent_span_id, enq_b->span.span_id);
  EXPECT_EQ(enq_a->session, session.session_id);

  // The Chrome dump draws the causal chain as flow events.
  std::string chrome = env_.tracer().DumpChromeTracing();
  EXPECT_NE(chrome.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(chrome.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(chrome.find("\"trace_id\":" + std::to_string(trace)),
            std::string::npos);

  // ---- recovery provenance on the restarted leaf ----
  std::vector<obs::RecoveryTimeline::SessionReplay> replays;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    replays = c_->LastRecoveryTimeline().session_replays;
    if (!replays.empty() && !replays[0].records.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(replays.empty());
  EXPECT_FALSE(replays[0].records.empty());

  // ---- offline inspection of C's physical log image ----
  ASSERT_TRUE(c_->log()->FlushAll().ok());
  LogInspectReport report;
  ASSERT_TRUE(
      InspectLogImage(&disk_c_, "C.log", LogInspectOptions(), &report).ok());
  EXPECT_GT(report.records, 0u);
  EXPECT_GT(report.records_by_type["RequestReceive"], 0u);
  for (const auto& v : report.invariant_violations) {
    ADD_FAILURE() << "invariant violation: " << v;
  }

  // ---- export artifacts for CI (trace dump + raw log image) ----
  {
    std::ofstream tf("msplog_chain_trace.json", std::ios::binary);
    ASSERT_TRUE(tf.good());
    tf << chrome;
  }
  {
    Bytes image;
    uint64_t size = disk_c_.FileSize("C.log");
    ASSERT_GT(size, 0u);
    ASSERT_TRUE(disk_c_.ReadAt("C.log", 0, size, &image).ok());
    std::ofstream lf("msplog_chain_log_image.bin", std::ios::binary);
    ASSERT_TRUE(lf.good());
    lf.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
}

TEST_F(ChainTest, AllThreeCrashTogether) {
  Build("dom", "dom", "dom");
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("A");
  Bytes reply;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  }
  a_->Crash();
  b_->Crash();
  c_->Crash();
  ASSERT_TRUE(c_->Start().ok());
  ASSERT_TRUE(b_->Start().ok());
  ASSERT_TRUE(a_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "arelay", "x", &reply).ok());
  EXPECT_EQ(reply, "A(B(4))");
}

}  // namespace
}  // namespace msplog
