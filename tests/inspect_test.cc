// Offline log/checkpoint inspector tests (msp/log_inspect.h): a real
// workload's log image inspects cleanly — every record accounted, every
// checkpoint blob decodable, zero invariant violations — and a corrupted
// copy of the same image is detected instead of silently accepted: a bad
// frame with intact frames after it is mid-log corruption, one without is
// a torn tail. Given the crash's facts, the report names each in-flight
// session's fate beside that verdict.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "json_strict.h"
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

class InspectTest : public ::testing::Test {
 protected:
  InspectTest() : env_(0.0), net_(&env_), disk_(&env_, "d1") {}

  void TearDown() override {
    if (msp_) msp_->Shutdown();
  }

  /// One MSP with aggressive checkpointing, so the log image carries every
  /// record type the inspector knows how to validate.
  void Build() {
    directory_.Assign("m1", "dom");
    MspConfig c;
    c.id = "m1";
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 256;
    c.shared_var_checkpoint_threshold_writes = 4;
    msp_ = std::make_unique<Msp>(&env_, &net_, &disk_, &directory_, c);
    msp_->RegisterSharedVariable("sv", "0");
    msp_->RegisterMethod("work", [](ServiceContext* ctx, const Bytes& arg,
                                    Bytes* r) {
      Bytes v;
      MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("sv", &v));
      MSPLOG_RETURN_IF_ERROR(ctx->WriteShared("sv", v + "x"));
      ctx->SetSessionVar("last", arg);
      *r = arg;
      return Status::OK();
    });
    ASSERT_TRUE(msp_->Start().ok());
  }

  /// Requests + a crash/recovery cycle, then make the whole log durable.
  void RunWorkloadWithCrash() {
    ClientEndpoint client(&env_, &net_, "cli");
    auto session = client.StartSession("m1");
    Bytes reply;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          client.Call(&session, "work", std::to_string(i), &reply).ok());
    }
    msp_->Crash();
    ASSERT_TRUE(msp_->Start().ok());
    for (int i = 12; i < 15; ++i) {
      ASSERT_TRUE(
          client.Call(&session, "work", std::to_string(i), &reply).ok());
    }
    ASSERT_TRUE(msp_->log()->FlushAll().ok());
  }

  /// The log's bytes, and the LSN of every record in it, in order.
  Bytes Image(std::vector<uint64_t>* lsns) {
    Bytes image;
    EXPECT_TRUE(
        disk_.ReadAt("m1.log", 0, disk_.FileSize("m1.log"), &image).ok());
    LogAnalysis scan;
    EXPECT_TRUE(AnalyzeLog(&disk_, "m1.log", 0, image.size(), &scan,
                           [&](const LogRecord& rec, uint64_t) {
                             lsns->push_back(rec.lsn);
                           })
                    .ok());
    return image;
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> msp_;
};

TEST_F(InspectTest, CleanImagePassesEveryInvariant) {
  Build();
  RunWorkloadWithCrash();

  LogInspectOptions opts;
  opts.dump_records = true;
  opts.dump_checkpoints = true;
  LogInspectReport report;
  std::string dump;
  ASSERT_TRUE(InspectLogImage(&disk_, "m1.log", opts, &report, &dump).ok());

  EXPECT_GT(report.records, 0u);
  EXPECT_GT(report.image_bytes, 0u);
  EXPECT_GT(report.last_lsn, report.first_lsn);
  // Requests reached the log. Not all fifteen survive: session checkpoints
  // let GC reclaim the head of the log, which is exactly the behavior the
  // inspector must tolerate (reclaimed sectors read back as padding).
  EXPECT_GE(report.records_by_type["RequestReceive"], 1u);
  EXPECT_LE(report.records_by_type["RequestReceive"], 15u);
  EXPECT_GT(report.records_by_type["SharedWrite"], 0u);
  // The 256-byte threshold forced session checkpoints; recovery wrote an
  // MSP checkpoint after its analysis scan on both boots.
  EXPECT_GE(report.session_checkpoints, 1u);
  EXPECT_GE(report.msp_checkpoints, 1u);
  EXPECT_GE(report.shared_var_checkpoints, 1u);
  EXPECT_EQ(report.records_by_session.size(), 1u);
  EXPECT_FALSE(report.torn_tail);
  for (const auto& v : report.invariant_violations) {
    ADD_FAILURE() << "invariant violation: " << v;
  }

  // The per-record dump names each record, and both renderings carry the
  // headline numbers.
  EXPECT_NE(dump.find("RequestReceive"), std::string::npos);
  EXPECT_NE(dump.find("crc=ok"), std::string::npos);
  EXPECT_NE(dump.find("checkpoint"), std::string::npos);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("records: " + std::to_string(report.records)),
            std::string::npos);
  EXPECT_NE(summary.find("invariants: OK"), std::string::npos);
  std::string json = report.ToJson();
  EXPECT_TRUE(JsonStrict(json));
  EXPECT_NE(json.find("\"records\":" + std::to_string(report.records)),
            std::string::npos);
  EXPECT_NE(json.find("\"invariant_violations\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"torn_tail\":false"), std::string::npos);
}

TEST_F(InspectTest, CorruptedCopyIsDetectedNotAccepted) {
  Build();
  RunWorkloadWithCrash();

  LogInspectReport clean;
  ASSERT_TRUE(
      InspectLogImage(&disk_, "m1.log", LogInspectOptions(), &clean).ok());
  ASSERT_TRUE(clean.invariant_violations.empty());

  // Copy the image and stomp its second half: the scan must stop at the
  // first corrupt frame instead of returning garbage records.
  uint64_t size = disk_.FileSize("m1.log");
  ASSERT_GT(size, 1024u);
  Bytes image;
  ASSERT_TRUE(disk_.ReadAt("m1.log", 0, size, &image).ok());
  for (size_t i = image.size() / 2; i < image.size(); ++i) {
    image[i] = static_cast<char>(image[i] ^ 0x5a);
  }
  ASSERT_TRUE(disk_.WriteAt("corrupt.log", 0, image).ok());

  LogInspectReport report;
  ASSERT_TRUE(
      InspectLogImage(&disk_, "corrupt.log", LogInspectOptions(), &report)
          .ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_LT(report.records, clean.records);
  EXPECT_NE(report.Summary().find("torn tail"), std::string::npos);
}

// One flipped byte inside a record in the middle of the image is mid-log
// corruption, not a torn tail: intact frames follow it at later arena
// starts, so the inspector reports a violation and --self-check fails.
TEST_F(InspectTest, MidLogFlipIsCorruptionNotTornTail) {
  Build();
  RunWorkloadWithCrash();
  std::vector<uint64_t> lsns;
  Bytes image = Image(&lsns);
  const size_t mid = lsns.size() / 2;
  image[lsns[mid] + 10] = static_cast<char>(image[lsns[mid] + 10] ^ 0x01);
  ASSERT_TRUE(disk_.WriteAt("flipped.log", 0, image).ok());

  LogInspectOptions opts;  // the facts of the workload's crash
  opts.crash = env_.flight_recorder().LatestBundleFor("m1").Facts();
  LogInspectReport report;
  ASSERT_TRUE(InspectLogImage(&disk_, "flipped.log", opts, &report).ok());
  EXPECT_EQ(report.records, mid);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.corrupt_lsn, lsns[mid]);
  EXPECT_GT(report.intact_lsn, lsns[mid]);
  ASSERT_EQ(report.invariant_violations.size(), 1u);
  EXPECT_NE(report.invariant_violations[0].find("mid-log corruption"),
            std::string::npos);
  EXPECT_NE(report.Summary().find("corrupt at lsn"), std::string::npos);
  EXPECT_TRUE(JsonStrict(report.ToJson()));
  // The fates come with the verdict: the session in flight at the crash
  // has records before the flipped byte.
  ASSERT_EQ(report.fates.size(), 1u);
  EXPECT_EQ(report.fates[0].fate, "replayed");
  EXPECT_NE(report.Summary().find(": replayed (first_lsn="), std::string::npos);
}

// An image that ends inside a frame — a write torn by a crash — is a torn
// tail: nothing intact follows the bad frame, and that is no violation.
TEST_F(InspectTest, ImageCutMidFrameIsTornTail) {
  Build();
  RunWorkloadWithCrash();
  std::vector<uint64_t> lsns;
  Bytes image = Image(&lsns);
  const size_t mid = lsns.size() / 2;
  image.resize(lsns[mid] + 12);
  ASSERT_TRUE(disk_.WriteAt("cut.log", 0, image).ok());

  LogInspectOptions opts;  // the facts of the workload's crash
  opts.crash = env_.flight_recorder().LatestBundleFor("m1").Facts();
  LogInspectReport report;
  ASSERT_TRUE(InspectLogImage(&disk_, "cut.log", opts, &report).ok());
  EXPECT_EQ(report.records, mid);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_tail_lsn, lsns[mid]);
  EXPECT_EQ(report.corrupt_lsn, 0u);
  for (const auto& v : report.invariant_violations) {
    ADD_FAILURE() << "invariant violation: " << v;
  }
  ASSERT_EQ(report.fates.size(), 1u);
  EXPECT_EQ(report.fates[0].fate, "replayed");
  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonStrict(json));
  EXPECT_NE(json.find("\"fates\":[{\"session\":"), std::string::npos);
}

TEST_F(InspectTest, StatsReconstructsPerSessionCountsFromTheImage) {
  Build();
  RunWorkloadWithCrash();

  LogInspectOptions opts;
  opts.collect_session_stats = true;
  LogInspectReport report;
  ASSERT_TRUE(InspectLogImage(&disk_, "m1.log", opts, &report).ok());

  ASSERT_EQ(report.session_stats.size(), 1u);
  const SessionLogStats& ss = report.session_stats[0];
  ASSERT_EQ(report.records_by_session.count(ss.session_id), 1u);
  // The reconstruction agrees with the walk's own accounting.
  EXPECT_EQ(ss.log_records, report.records_by_session.at(ss.session_id));
  EXPECT_EQ(ss.requests, report.records_by_type["RequestReceive"]);
  EXPECT_EQ(ss.checkpoints, report.session_checkpoints);
  EXPECT_GE(ss.requests, 1u);
  EXPECT_LE(ss.requests, 15u);  // GC may have reclaimed the head
  EXPECT_GE(ss.checkpoints, 1u);
  // Byte accounting uses the framed on-log footprint, so the per-session
  // total can never exceed the image.
  EXPECT_GT(ss.log_bytes, 0u);
  EXPECT_LE(ss.log_bytes, report.image_bytes);
  EXPECT_EQ(ss.nested_calls, 0u);  // this workload makes no nested calls
  EXPECT_TRUE(ss.calls_by_peer.empty());

  // Rendered in both outputs. The JSON claims nothing a log cannot show.
  EXPECT_NE(report.Summary().find("per-session stats:"), std::string::npos);
  EXPECT_NE(report.Summary().find(ss.session_id + ": requests="),
            std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"session_stats\":[{\"session\":"), std::string::npos);
  EXPECT_TRUE(JsonStrict(json));
  for (const char* key :
       {"max_request_fanout", "cross_domain_calls", "flush_stalls",
        "flush_stall_ms", "forced_flushes", "piggybacked_sends", "replays"}) {
    EXPECT_EQ(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }

  // Without the flag the report stays lean.
  LogInspectReport plain;
  ASSERT_TRUE(
      InspectLogImage(&disk_, "m1.log", LogInspectOptions(), &plain).ok());
  EXPECT_TRUE(plain.session_stats.empty());
  EXPECT_EQ(plain.ToJson().find("session_stats"), std::string::npos);
}

TEST_F(InspectTest, MissingImageIsAnError) {
  LogInspectReport report;
  EXPECT_TRUE(InspectLogImage(&disk_, "no-such.log", LogInspectOptions(),
                              &report)
                  .IsNotFound());
}

}  // namespace
}  // namespace msplog
