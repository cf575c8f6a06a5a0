// Tests for MSP crash recovery (§4.3): analysis scan, session replay,
// shared-state roll forward, checkpoint-bounded scans, exactly-once
// semantics across crashes, parallel session recovery.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

/// Threads of this process, as the kernel lists them.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// True once at most `n` threads remain. A joined thread can stay listed
/// for a moment after join() returns, so this polls for a while.
bool ThreadsSettleAtMost(size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ThreadCount() > n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class MspRecoveryTest : public ::testing::Test {
 protected:
  MspRecoveryTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
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
    msp->RegisterSharedVariable("acc", "0");
    msp->RegisterMethod(
        "counter", [](ServiceContext* ctx, const Bytes&, Bytes* result) {
          Bytes cur = ctx->GetSessionVar("n");
          int n = cur.empty() ? 0 : std::stoi(cur);
          ctx->SetSessionVar("n", std::to_string(n + 1));
          *result = std::to_string(n + 1);
          return Status::OK();
        });
    msp->RegisterMethod(
        "add_shared", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          Bytes cur;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &cur));
          long total = std::stol(cur) + std::stol(Bytes(arg));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("acc", std::to_string(total)));
          *result = std::to_string(total);
          return Status::OK();
        });
    msp->RegisterMethod(
        "mix", [](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          // Session state += shared state read; shared state updated.
          Bytes shared;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &shared));
          Bytes mine = ctx->GetSessionVar("sum");
          long sum = (mine.empty() ? 0 : std::stol(mine)) + std::stol(shared);
          ctx->SetSessionVar("sum", std::to_string(sum));
          MSPLOG_RETURN_IF_ERROR(ctx->WriteShared(
              "acc", std::to_string(std::stol(shared) + std::stol(Bytes(arg)))));
          *result = std::to_string(sum);
          return Status::OK();
        });
  }

  void CrashAndRestart() {
    msp_->Crash();
    ASSERT_TRUE(msp_->Start().ok());
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(MspRecoveryTest, SessionStateSurvivesCrash) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  CrashAndRestart();
  // The session's private state was never logged — redo recovery replayed
  // the requests (§3.2). The next request continues the same count.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "6");
  EXPECT_GE(env_.stats().requests_replayed.load(), 5u);
}

TEST_F(MspRecoveryTest, EpochIncrementsPerStart) {
  // Every start — even the first — runs crash recovery and opens a new
  // epoch, because a restarted process cannot prove its previous
  // incarnation never existed.
  StartMsp(BaseConfig());
  EXPECT_EQ(msp_->epoch(), 1u);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  CrashAndRestart();
  EXPECT_EQ(msp_->epoch(), 2u);
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  CrashAndRestart();
  EXPECT_EQ(msp_->epoch(), 3u);
}

TEST_F(MspRecoveryTest, SharedStateRollsForwardFromLog) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "add_shared", "10", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "add_shared", "32", &reply).ok());
  EXPECT_EQ(reply, "42");
  CrashAndRestart();
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "42");
}

TEST_F(MspRecoveryTest, ExactlyOnceAcrossCrash) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "add_shared", "5", &reply).ok());
  CrashAndRestart();
  // Resend of the SAME request after the crash must not re-execute.
  session.next_seqno = 1;
  ASSERT_TRUE(client.Call(&session, "add_shared", "5", &reply).ok());
  EXPECT_EQ(reply, "5");
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "5");  // not 10
}

TEST_F(MspRecoveryTest, UnflushedTailIsLostButClientRetrySucceeds) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "1");
  CrashAndRestart();
  // Request 2 again: whether or not its receive record was flushed, the
  // client's retry must end with exactly one execution of request 2.
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "2");
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "3");
}

TEST_F(MspRecoveryTest, MultipleSessionsRecoverInParallel) {
  auto cfg = BaseConfig();
  cfg.thread_pool_size = 4;
  StartMsp(cfg);
  constexpr int kSessions = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
      auto s = client.StartSession("alpha");
      Bytes reply;
      for (int r = 0; r < 5; ++r) {
        ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t recovered_before = env_.stats().sessions_recovered.load();
  CrashAndRestart();
  // Wait for all session recovery tasks to finish.
  for (int spin = 0; spin < 500; ++spin) {
    if (env_.stats().sessions_recovered.load() >= recovered_before + kSessions)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(env_.stats().sessions_recovered.load(),
            recovered_before + kSessions);
  // Each session continues with its own count.
  for (int i = 0; i < kSessions; ++i) {
    ClientEndpoint client(&env_, &net_, "cli" + std::to_string(i));
    // Session ids are deterministic per client name + counter; recreate the
    // handle with the right seqno.
    ClientSession s;
    s.msp = "alpha";
    s.session_id = "cli" + std::to_string(i) + "/se1";
    s.next_seqno = 6;
    Bytes reply;
    ASSERT_TRUE(client.Call(&s, "counter", "", &reply).ok());
    EXPECT_EQ(reply, "6");
  }
}

TEST_F(MspRecoveryTest, CheckpointBoundsReplayWork) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  uint64_t replayed_before = env_.stats().requests_replayed.load();
  CrashAndRestart();
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
  // Nothing (or almost nothing) to replay: the checkpoint captured it all.
  EXPECT_EQ(env_.stats().requests_replayed.load(), replayed_before);
}

TEST_F(MspRecoveryTest, RecoveryWithCheckpointPlusTail) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  uint64_t replayed_before = env_.stats().requests_replayed.load();
  CrashAndRestart();
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
  // Only the post-checkpoint tail (≤4 requests) needed replay.
  EXPECT_LE(env_.stats().requests_replayed.load() - replayed_before, 4u);
}

TEST_F(MspRecoveryTest, SharedVarCheckpointBreaksUndoChain) {
  auto cfg = BaseConfig();
  StartMsp(cfg);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  }
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::SharedVar("acc")).ok());
  ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  EXPECT_EQ(reply, "6");
  CrashAndRestart();
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "6");
}

TEST_F(MspRecoveryTest, RepeatedCrashesConverge) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int round = 1; round <= 5; ++round) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(round));
    CrashAndRestart();
  }
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "6");
  EXPECT_EQ(msp_->epoch(), 6u);
}

TEST_F(MspRecoveryTest, FreshStartHasNothingToRecover) {
  StartMsp(BaseConfig());
  EXPECT_EQ(msp_->SessionCount(), 0u);
  EXPECT_EQ(msp_->epoch(), 1u);
  EXPECT_EQ(env_.stats().requests_replayed.load(), 0u);
}

TEST_F(MspRecoveryTest, EndedSessionsAreNotResurrected) {
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  ASSERT_TRUE(client.Call(&session, "__end_session", "", &reply).ok());
  CrashAndRestart();
  EXPECT_FALSE(msp_->HasSession(session.session_id));
}

// Position streams live in memory only: a workload that checkpoints its
// session, crashes and replays leaves no pos/ file on the MSP's disk.
TEST_F(MspRecoveryTest, PositionStreamsWriteNoFiles) {
  MspConfig c = BaseConfig();
  c.session_checkpoint_threshold_bytes = 256;
  StartMsp(c);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  }
  CrashAndRestart();
  ASSERT_TRUE(client.Call(&session, "add_shared", "1", &reply).ok());
  EXPECT_EQ(reply, "21");
  for (const std::string& f : disk_.ListFiles()) {
    EXPECT_NE(f.rfind("pos/", 0), 0u) << "position-stream file " << f;
  }
}

// A start that fails leaves the server stopped: every thread it started is
// gone, and a retry runs recovery again instead of reporting "already
// running".
TEST_F(MspRecoveryTest, FailedStartStopsAndCanBeRetried) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Shutdown();

  // Flip one byte of the anchor's body: its CRC no longer matches.
  Bytes anchor;
  ASSERT_TRUE(disk_.ReadAt("alpha.anchor", 0, 16, &anchor).ok());
  Bytes corrupt = anchor;
  corrupt[8] ^= 0x01;
  ASSERT_TRUE(disk_.WriteAt("alpha.anchor", 0, corrupt).ok());

  const size_t threads_before = ThreadCount();
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status st = msp_->Start();
    EXPECT_TRUE(st.IsCorruption()) << "attempt " << attempt << ": "
                                   << st.ToString();
    EXPECT_FALSE(msp_->running());
    EXPECT_NE(msp_->DumpStatusz().find("\"state\":\"stopped\""),
              std::string::npos)
        << "attempt " << attempt;
    EXPECT_TRUE(ThreadsSettleAtMost(threads_before))
        << "attempt " << attempt << ": " << ThreadCount() << " threads, "
        << threads_before << " before Start()";
  }

  // With the anchor repaired, the next start recovers the session.
  ASSERT_TRUE(disk_.WriteAt("alpha.anchor", 0, anchor).ok());
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "4");
}

TEST_F(MspRecoveryTest, RequestsDuringRecoveryEventuallyServed) {
  // Crash with a populated log; issue a request immediately after Start
  // returns (sessions may still be replaying).
  StartMsp(BaseConfig());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  }
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
  EXPECT_EQ(reply, "11");
}

}  // namespace
}  // namespace msplog
