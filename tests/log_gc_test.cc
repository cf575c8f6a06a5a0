// Log-space reclamation tests: hole-punched prefixes scan as padding, a punch
// stops at an arena start so a scan from offset 0 finds whole frames after
// it, and an MSP whose log was reclaimed after checkpoints still recovers the
// complete state from the surviving suffix.
#include <gtest/gtest.h>

#include <fstream>

#include "harness/paper_workload.h"
#include "log/log_file.h"
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

LogRecord Rec(uint64_t seqno, size_t payload = 64) {
  LogRecord r;
  r.type = LogRecordType::kRequestReceive;
  r.session_id = "s";
  r.seqno = seqno;
  r.payload = MakePayload(payload, seqno);
  return r;
}

TEST(LogGcTest, PunchedPrefixScansAsPadding) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  std::vector<uint64_t> lsns;
  for (uint64_t i = 1; i <= 20; ++i) {
    lsns.push_back(log.Append(Rec(i, 300)));
    if (i % 5 == 0) {
      ASSERT_TRUE(log.FlushAll().ok());
    }
  }
  ASSERT_TRUE(log.FlushAll().ok());

  // Reclaim everything below record 11.
  uint64_t cut = lsns[10];
  EXPECT_GT(log.ReclaimUpTo(cut), 0u);
  EXPECT_LE(log.reclaimed_lsn(), cut);
  EXPECT_GT(env.stats().disk_bytes_reclaimed.load(), 0u);

  // A full scan from 0 skips the hole and yields exactly the survivors.
  LogScanner scanner(&disk, "log", 0, disk.FileSize("log"));
  LogRecord r;
  std::vector<uint64_t> seen;
  while (scanner.Next(&r).ok()) seen.push_back(r.seqno);
  ASSERT_FALSE(seen.empty());
  // Everything from the first record at or after the sector-floor boundary
  // survives; in particular records 11..20 are all present, in order.
  EXPECT_EQ(seen.back(), 20u);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_EQ(seen[i], seen[i - 1] + 1);
  EXPECT_LE(seen.front(), 11u);
  EXPECT_GE(seen.size(), 10u);
}

// Reclaim stops at an arena start, never at a sector boundary inside an
// arena: a frame straddling that boundary would leave its tail as the first
// surviving bytes, and a scan from offset 0 would stop there.
TEST(LogGcTest, ReclaimKeepsFramesWholeInsideAnArena) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  const uint64_t l1 = log.Append(Rec(1, 700));
  const uint64_t l2 = log.Append(Rec(2));
  ASSERT_EQ(l1, 512u);
  ASSERT_GT(l2, 1024u);  // record 1 straddles the sector boundary at 1024
  ASSERT_TRUE(log.FlushAll().ok());
  log.ReclaimUpTo(l2);
  EXPECT_EQ(log.reclaimed_lsn(), l1);  // the arena's start

  LogScanner scanner(&disk, "log", 0, disk.FileSize("log"));
  LogRecord r;
  std::vector<uint64_t> seen;
  Status st;
  while ((st = scanner.Next(&r)).ok()) seen.push_back(r.seqno);
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

// A LoOptimistic run (§5) with small checkpoints reclaims its logs all along.
// Each log still inspects from offset 0 with records and no violation; the
// MSP1 image is exported for the offline self-check in CI.
TEST(LogGcTest, ReclaimedPaperLogsInspectCleanly) {
  PaperWorkloadOptions o;
  o.config = PaperConfig::kLoOptimistic;
  o.msp_checkpoint_log_bytes = 8 * 1024;
  o.session_checkpoint_threshold_bytes = 4 * 1024;
  PaperWorkload w(o);
  ASSERT_TRUE(w.Start().ok());
  SimDisk* disks[] = {w.msp1()->log()->disk(), w.msp2()->log()->disk()};
  const std::string logs[] = {w.msp1()->config().id + ".log",
                              w.msp2()->config().id + ".log"};
  const RunResult run = w.RunMultiClient(4, 150);
  EXPECT_EQ(run.requests, 600u);
  w.Shutdown();
  EXPECT_GT(w.env()->stats().disk_bytes_reclaimed.load(), 0u);
  for (int i = 0; i < 2; ++i) {
    LogInspectReport report;
    ASSERT_TRUE(InspectLogImage(disks[i], logs[i], LogInspectOptions(),
                                &report)
                    .ok());
    EXPECT_GT(report.records, 0u) << logs[i];
    EXPECT_FALSE(report.torn_tail) << logs[i];
    for (const auto& v : report.invariant_violations) {
      ADD_FAILURE() << logs[i] << ": " << v;
    }
  }
  Bytes image;
  ASSERT_TRUE(
      disks[0]->ReadAt(logs[0], 0, disks[0]->FileSize(logs[0]), &image).ok());
  std::ofstream lf("msplog_reclaimed_log_image.bin", std::ios::binary);
  lf.write(image.data(), static_cast<std::streamsize>(image.size()));
}

TEST(LogGcTest, ReclaimIsIdempotentAndMonotonic) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  uint64_t l1 = log.Append(Rec(1, 2000));
  uint64_t l2 = log.Append(Rec(2, 2000));
  ASSERT_TRUE(log.FlushAll().ok());
  (void)l1;
  uint64_t first = log.ReclaimUpTo(l2);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(log.ReclaimUpTo(l2), 0u);      // idempotent
  EXPECT_EQ(log.ReclaimUpTo(l2 - 600), 0u);  // never moves backwards
}

TEST(LogGcTest, ReclaimNeverTouchesUndurableData) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  uint64_t l1 = log.Append(Rec(1));
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t l2 = log.Append(Rec(2));  // buffered only
  // Reclamation clamps at the durable boundary: the whole durable prefix
  // (reserved sector + record 1) may go, the volatile buffer never.
  EXPECT_EQ(log.ReclaimUpTo(l2 + 10000), log.durable_lsn());
  (void)l1;
  LogRecord r;
  ASSERT_TRUE(log.ReadRecordAt(l2, &r).ok());  // buffer unaffected
  EXPECT_EQ(r.seqno, 2u);
}

class MspGcTest : public ::testing::Test {
 protected:
  MspGcTest() : env_(0.0), net_(&env_), disk_(&env_, "d") {}
  void TearDown() override {
    if (msp_) msp_->Shutdown();
  }
  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(MspGcTest, CheckpointDrivenReclamationKeepsRecoveryCorrect) {
  directory_.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.reclaim_log = true;
  msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
  msp_->RegisterSharedVariable("acc", "0");
  msp_->RegisterMethod("add", [](ServiceContext* ctx, const Bytes& a,
                                 Bytes* r) {
    Bytes cur;
    MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("acc", &cur));
    long t = std::stol(cur) + std::stol(Bytes(a));
    MSPLOG_RETURN_IF_ERROR(ctx->WriteShared("acc", std::to_string(t)));
    Bytes mine = ctx->GetSessionVar("mine");
    ctx->SetSessionVar("mine",
                       std::to_string((mine.empty() ? 0 : std::stol(mine)) +
                                      std::stol(Bytes(a))));
    *r = std::to_string(t);
    return Status::OK();
  });
  ASSERT_TRUE(msp_->Start().ok());

  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.Call(&session, "add", "1", &reply).ok());
    }
    // Checkpoint the session and the variable, then the MSP: everything
    // before this round becomes reclaimable.
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::SharedVar("acc")).ok());
    ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  }
  EXPECT_EQ(reply, "40");
  uint64_t reclaimed = env_.stats().disk_bytes_reclaimed.load();
  EXPECT_GT(reclaimed, 4096u) << "multiple rounds should free real space";

  // Crash recovery over the holey log restores the exact state.
  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  auto v = msp_->PeekSharedValue("acc");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "40");
  ASSERT_TRUE(client.Call(&session, "add", "2", &reply).ok());
  EXPECT_EQ(reply, "42");
  auto mine = msp_->PeekSessionVar(session.session_id, "mine");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(*mine, "42");
}

// A reopened log reclaims below the point it reopened at: the recovery scan
// hands it the frames that start on a sector boundary, so the checkpoint
// that ends recovery releases what a mid-log session checkpoint no longer
// needs, and recovery over that log stays exact.
TEST_F(MspGcTest, RestartReclaimsBelowTheReopenedEnd) {
  directory_.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.reclaim_log = true;
  msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
  msp_->RegisterMethod("count", [](ServiceContext* ctx, const Bytes&,
                                   Bytes* r) {
    Bytes n = ctx->GetSessionVar("n");
    *r = std::to_string((n.empty() ? 0 : std::stol(n)) + 1);
    ctx->SetSessionVar("n", *r);
    return Status::OK();
  });
  ASSERT_TRUE(msp_->Start().ok());
  const std::string file = msp_->log()->file_name();

  ClientEndpoint client(&env_, &net_, "cli");
  auto pinned = client.StartSession("alpha");
  auto busy = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&pinned, "count", "", &reply).ok());
  }
  ASSERT_TRUE(
      msp_->ForceCheckpoint(CheckpointTarget::Session(pinned.session_id))
          .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(&busy, "count", "", &reply).ok());
  }
  const uint64_t reclaimed_before = msp_->log()->reclaimed_lsn();

  msp_->Crash();
  const uint64_t reopened_at = disk_.FileSize(file);
  ASSERT_TRUE(msp_->Start().ok());
  EXPECT_GT(msp_->log()->reclaimed_lsn(), reclaimed_before);
  EXPECT_LT(msp_->log()->reclaimed_lsn(), reopened_at);

  msp_->Crash();
  ASSERT_TRUE(msp_->Start().ok());
  ASSERT_TRUE(client.Call(&pinned, "count", "", &reply).ok());
  EXPECT_EQ(reply, "11");
  ASSERT_TRUE(client.Call(&busy, "count", "", &reply).ok());
  EXPECT_EQ(reply, "11");
}

TEST_F(MspGcTest, ReclamationCanBeDisabled) {
  directory_.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  c.reclaim_log = false;
  msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
  msp_->RegisterMethod("echo", [](ServiceContext*, const Bytes& a, Bytes* r) {
    *r = a;
    return Status::OK();
  });
  ASSERT_TRUE(msp_->Start().ok());
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(&session, "echo", "x", &reply).ok());
  }
  uint64_t before = env_.stats().disk_bytes_reclaimed.load();
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Session(session.session_id)).ok());
  ASSERT_TRUE(msp_->ForceCheckpoint(CheckpointTarget::Msp()).ok());
  EXPECT_EQ(env_.stats().disk_bytes_reclaimed.load(), before);
}

}  // namespace
}  // namespace msplog
