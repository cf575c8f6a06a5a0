// Tests for the ablation modes (DESIGN.md §5): the §3.2 MSP-wide-DV
// strawman versus per-session DVs, and sequential versus parallel session
// recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

// Sessions at alpha: one depends on beta (via relay), the others are purely
// local. Beta crashes while the dependent session's dependency is
// unflushed. With per-session DVs only the dependent session replays; with
// the MSP-wide strawman every session does. Parameters: per-session DVs,
// and the number of independent sessions (with several, their replays run
// concurrently on alpha's pool).
class DvGranularityTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  DvGranularityTest()
      : env_(0.0), net_(&env_), disk_a_(&env_, "da"), disk_b_(&env_, "db") {}

  void SetUp() override {
    bool per_session = std::get<0>(GetParam());
    directory_.Assign("alpha", "dom");
    directory_.Assign("beta", "dom");
    MspConfig ca, cb;
    ca.id = "alpha";
    cb.id = "beta";
    ca.per_session_dv = per_session;
    ca.flush_timeout_ms = cb.flush_timeout_ms = 20;
    alpha_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_, ca);
    beta_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_, cb);
    beta_->RegisterMethod("echo",
                          [](ServiceContext*, const Bytes& a, Bytes* r) {
                            *r = "beta:" + a;
                            return Status::OK();
                          });
    alpha_->RegisterMethod(
        "relay_gated", [this](ServiceContext* ctx, const Bytes& a, Bytes* r) {
          Bytes reply;
          MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "echo", a, &reply));
          if (!ctx->in_replay()) {
            held_.store(true);
            while (gate_.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          *r = reply;
          return Status::OK();
        });
    alpha_->RegisterMethod("local_count",
                           [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                             Bytes cur = ctx->GetSessionVar("n");
                             int n = cur.empty() ? 0 : std::stoi(cur);
                             ctx->SetSessionVar("n", std::to_string(n + 1));
                             *r = std::to_string(n + 1);
                             return Status::OK();
                           });
    ASSERT_TRUE(beta_->Start().ok());
    ASSERT_TRUE(alpha_->Start().ok());
  }

  void TearDown() override {
    gate_.store(false);
    if (alpha_) alpha_->Shutdown();
    if (beta_) beta_->Shutdown();
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_, disk_b_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> alpha_, beta_;
  std::atomic<bool> gate_{false}, held_{false};
};

TEST_P(DvGranularityTest, IndependentSessionRollbackOnlyWithPerSessionDvs) {
  const auto [per_session, independent] = GetParam();
  ClientEndpoint c1(&env_, &net_, "dep");
  ClientEndpoint c2(&env_, &net_, "indep");
  std::vector<ClientSession> indep;
  Bytes reply;
  for (int k = 0; k < independent; ++k) {
    indep.push_back(c2.StartSession("alpha"));
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(c2.Call(&indep.back(), "local_count", "", &reply).ok());
    }
    EXPECT_EQ(reply, "5");
  }

  // Dependent session parks with an unflushed dependency on beta.
  gate_.store(true);
  held_.store(false);
  std::thread t([&] {
    auto s1 = c1.StartSession("alpha");
    Bytes r;
    Status st = c1.Call(&s1, "relay_gated", "x", &r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  while (!held_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  uint64_t replayed_before = env_.stats().requests_replayed.load();
  beta_->Crash();
  ASSERT_TRUE(beta_->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  gate_.store(false);
  t.join();

  // The independent sessions keep working and their state is intact in
  // both modes — correctness is never at stake, only wasted work.
  for (auto& s : indep) {
    ASSERT_TRUE(c2.Call(&s, "local_count", "", &reply).ok());
    EXPECT_EQ(reply, "6");
  }

  uint64_t replayed = env_.stats().requests_replayed.load() - replayed_before;
  if (per_session) {
    // Only the dependent session's single request replays.
    EXPECT_LE(replayed, 2u);
  } else {
    // §3.2: "If only one DV is maintained ... all its sessions will roll
    // back, possibly unnecessarily" — every independent session's 5
    // requests replay too.
    EXPECT_GE(replayed, 5u * independent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Granularity, DvGranularityTest,
    ::testing::Combine(::testing::Values(true, false), ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "PerSessionDv"
                                                 : "MspWideDv") +
             std::to_string(std::get<1>(info.param)) + "Independent";
    });

// ---------------------------------------------------------------------------
// Sequential vs parallel session recovery: same end state either way.
// ---------------------------------------------------------------------------

class RecoveryParallelismTest : public ::testing::TestWithParam<bool> {};

TEST_P(RecoveryParallelismTest, SameStateEitherWay) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.sequential_recovery = GetParam();
  c.thread_pool_size = 4;
  Msp msp(&env, &net, &disk, &dir, c);
  msp.RegisterMethod("counter",
                     [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                       Bytes cur = ctx->GetSessionVar("n");
                       int n = cur.empty() ? 0 : std::stoi(cur);
                       ctx->SetSessionVar("n", std::to_string(n + 1));
                       *r = std::to_string(n + 1);
                       return Status::OK();
                     });
  ASSERT_TRUE(msp.Start().ok());
  constexpr int kSessions = 5;
  for (int i = 0; i < kSessions; ++i) {
    ClientEndpoint client(&env, &net, "cli" + std::to_string(i));
    auto s = client.StartSession("alpha");
    Bytes reply;
    for (int r = 0; r < 4; ++r) {
      ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
    }
  }
  msp.Crash();
  ASSERT_TRUE(msp.Start().ok());
  for (int i = 0; i < kSessions; ++i) {
    ClientEndpoint client(&env, &net, "cli" + std::to_string(i));
    ClientSession s;
    s.msp = "alpha";
    s.session_id = "cli" + std::to_string(i) + "/se1";
    s.next_seqno = 5;
    Bytes reply;
    ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
    EXPECT_EQ(reply, "5");
  }
  msp.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Modes, RecoveryParallelismTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sequential" : "Parallel";
                         });

}  // namespace
}  // namespace msplog
