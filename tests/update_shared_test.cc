// Tests for UpdateShared — atomic read-modify-write on shared variables:
// cross-session exactness under full concurrency, replay correctness across
// crashes, orphan handling, and checkpoint interaction.
#include <gtest/gtest.h>

#include <thread>

#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class UpdateSharedTest : public ::testing::Test {
 protected:
  UpdateSharedTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
  }

  void StartMsp(MspConfig c) {
    directory_.Assign(c.id, "dom");
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    msp_->RegisterSharedVariable("counter", "0");
    msp_->RegisterMethod("inc", [](ServiceContext* ctx, const Bytes&,
                                   Bytes* r) {
      return ctx->UpdateShared(
          "counter",
          [](const Bytes& cur) { return std::to_string(std::stol(cur) + 1); },
          r);
    });
    ASSERT_TRUE(msp_->Start().ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(UpdateSharedTest, ConcurrentIncrementsAreExact) {
  MspConfig c;
  c.id = "alpha";
  c.thread_pool_size = 8;
  c.checkpoint_daemon = false;
  StartMsp(c);
  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
      auto s = client.StartSession("alpha");
      Bytes reply;
      for (int r = 0; r < kPerClient; ++r) {
        ASSERT_TRUE(client.Call(&s, "inc", "", &reply).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto v = msp_->PeekSharedValue("counter");
  ASSERT_TRUE(v.ok());
  // The whole point: no lost updates, ever.
  EXPECT_EQ(*v, std::to_string(kClients * kPerClient));
}

TEST_F(UpdateSharedTest, ValueSurvivesCrashExactly) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 9; ++i) {
    ASSERT_TRUE(client.Call(&session, "inc", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  auto v = msp_->PeekSharedValue("counter");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "9");
  // Duplicate of the last request after the crash: not re-applied.
  session.next_seqno = 9;
  ASSERT_TRUE(client.Call(&session, "inc", "", &reply).ok());
  EXPECT_EQ(reply, "9");
  EXPECT_EQ(*msp_->PeekSharedValue("counter"), "9");
}

TEST_F(UpdateSharedTest, ReplayReappliesFnToLoggedValue) {
  // The update function runs on the LOGGED read value during replay, so the
  // method's continuation sees the identical result, and the variable
  // itself is rolled forward from the write records, not the re-run.
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  StartMsp(c);
  msp_->RegisterMethod("inc_into_session",
                       [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                         Bytes after;
                         MSPLOG_RETURN_IF_ERROR(ctx->UpdateShared(
                             "counter",
                             [](const Bytes& cur) {
                               return std::to_string(std::stol(cur) + 1);
                             },
                             &after));
                         // Session state derives from the update's result.
                         ctx->SetSessionVar("seen", after);
                         *r = after;
                         return Status::OK();
                       });
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "inc_into_session", "", &reply).ok());
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  // Session replay re-derived the same "seen" value.
  for (int spin = 0; spin < 200; ++spin) {
    if (msp_->PeekSessionVar(session.session_id, "seen").ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto seen = msp_->PeekSessionVar(session.session_id, "seen");
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, "5");
  EXPECT_EQ(*msp_->PeekSharedValue("counter"), "5");
}

// A write record is the variable's, not the session's (Fig. 8), so the
// session's DV stays at its read. Here the read is already durable — the
// FlushAll stands in for a concurrent session's flush — when the write is
// appended: the reply's flush must still cover the write, or the crash
// loses a write the client saw acknowledged.
TEST_F(UpdateSharedTest, AcknowledgedWriteSurvivesCrash) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  StartMsp(c);
  msp_->RegisterMethod(
      "read_flush_write", [this](ServiceContext* ctx, const Bytes&, Bytes* r) {
        Bytes cur;
        MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("counter", &cur));
        if (!ctx->in_replay()) MSPLOG_RETURN_IF_ERROR(msp_->log()->FlushAll());
        *r = std::to_string(std::stol(cur) + 1);
        return ctx->WriteShared("counter", *r);
      });
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "read_flush_write", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  auto v = msp_->PeekSharedValue("counter");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
}

TEST_F(UpdateSharedTest, WorksWithCheckpointThresholds) {
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.shared_var_checkpoint_threshold_writes = 4;
  c.session_checkpoint_threshold_bytes = 1024;
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(client.Call(&session, "inc", "", &reply).ok());
  }
  EXPECT_GE(env_.stats().checkpoints_shared_var.load(), 4u);
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_EQ(*msp_->PeekSharedValue("counter"), "20");
}

}  // namespace
}  // namespace msplog
