// Property-based tests: parameterized sweeps over fault rates, crash
// intervals and checkpoint thresholds asserting the paper's core invariants
// (exactly-once execution, no surviving orphans, DV algebra, codec fuzz).
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "harness/paper_workload.h"
#include "log/log_record.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "recovery/dependency_vector.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

// ---------------------------------------------------------------------------
// Exactly-once under network faults (sweep drop × duplicate probabilities).
// ---------------------------------------------------------------------------

class FaultSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FaultSweepTest, CounterIsExactlyOnce) {
  auto [drop, dup] = GetParam();
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "domA");
  MspConfig c;
  c.id = "alpha";
  c.checkpoint_daemon = false;
  Msp msp(&env, &net, &disk, &dir, c);
  msp.RegisterMethod("counter",
                     [](ServiceContext* ctx, const Bytes&, Bytes* result) {
                       Bytes cur = ctx->GetSessionVar("n");
                       int n = cur.empty() ? 0 : std::stoi(cur);
                       ctx->SetSessionVar("n", std::to_string(n + 1));
                       *result = std::to_string(n + 1);
                       return Status::OK();
                     });
  ASSERT_TRUE(msp.Start().ok());
  FaultPlan faults;
  faults.drop_prob = drop;
  faults.duplicate_prob = dup;
  net.SetFaults("cli", "alpha", faults);
  net.SetFaults("alpha", "cli", faults);
  ClientEndpoint client(&env, &net, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 1; i <= 15; ++i) {
    ASSERT_TRUE(client.Call(&session, "counter", "", &reply).ok());
    EXPECT_EQ(reply, std::to_string(i));
  }
  msp.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    DropDupGrid, FaultSweepTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.45),
                       ::testing::Values(0.0, 0.2, 0.45)));

// ---------------------------------------------------------------------------
// Crash-interval sweep on the paper workload: every request executes exactly
// once no matter how often the callee dies.
// ---------------------------------------------------------------------------

class CrashIntervalTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashIntervalTest, SharedStateReflectsEveryRequestOnce) {
  int crash_every = GetParam();
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = false;
  opts.client_max_sends = 2000;  // storms must not exhaust the retry budget
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  constexpr int kRequests = 24;
  RunResult r = w.RunSingleClient(kRequests, crash_every);
  EXPECT_EQ(r.requests, static_cast<uint64_t>(kRequests));
  auto v = w.msp1()->PeekSharedValue("SV0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, MakePayload(128, kRequests * 2 + 1));
  auto v2 = w.msp2()->PeekSharedValue("SV2");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, MakePayload(128, kRequests * 3 + 1));
  w.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Intervals, CrashIntervalTest,
                         ::testing::Values(4, 6, 9, 13));

// ---------------------------------------------------------------------------
// Checkpoint-threshold sweep: recovery lands on the same state whatever the
// checkpoint cadence.
// ---------------------------------------------------------------------------

class CheckpointSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointSweepTest, RecoveredStateIndependentOfThreshold) {
  uint64_t threshold = GetParam();
  PaperWorkloadOptions opts;
  opts.config = PaperConfig::kLoOptimistic;
  opts.time_scale = 0.0;
  opts.checkpoint_daemon = threshold != 0;
  opts.session_checkpoint_threshold_bytes = threshold;
  opts.msp_checkpoint_log_bytes = threshold ? threshold : 0;
  PaperWorkload w(opts);
  ASSERT_TRUE(w.Start().ok());
  auto client = w.MakeClient("cks");
  auto session = client->StartSession("msp1");
  Bytes reply;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
  }
  Bytes sv0 = *w.msp1()->PeekSharedValue("SV0");
  w.msp1()->Crash();
  ASSERT_TRUE(w.msp1()->Start().ok());
  auto v = w.msp1()->PeekSharedValue("SV0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, sv0);
  ASSERT_TRUE(client->Call(&session, "ServiceMethod1", "x", &reply).ok());
  w.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CheckpointSweepTest,
                         ::testing::Values(0, 2048, 8192, 65536));

// ---------------------------------------------------------------------------
// Dependency-vector algebra (merge is a join: commutative, associative,
// idempotent, monotone).
// ---------------------------------------------------------------------------

DependencyVector RandomDv(Rng* rng, int max_entries) {
  DependencyVector dv;
  int n = static_cast<int>(rng->Uniform(max_entries + 1));
  for (int i = 0; i < n; ++i) {
    dv.Set("p" + std::to_string(rng->Uniform(5)),
           {static_cast<uint32_t>(rng->Uniform(3)), rng->Uniform(1000)});
  }
  return dv;
}

class DvAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DvAlgebraTest, MergeIsJoinSemilattice) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    DependencyVector a = RandomDv(&rng, 4);
    DependencyVector b = RandomDv(&rng, 4);
    DependencyVector c = RandomDv(&rng, 4);

    // Commutative: a ∨ b == b ∨ a.
    DependencyVector ab = a, ba = b;
    ab.Merge(b);
    ba.Merge(a);
    EXPECT_EQ(ab, ba);

    // Associative: (a ∨ b) ∨ c == a ∨ (b ∨ c).
    DependencyVector abc1 = ab;
    abc1.Merge(c);
    DependencyVector bc = b;
    bc.Merge(c);
    DependencyVector abc2 = a;
    abc2.Merge(bc);
    EXPECT_EQ(abc1, abc2);

    // Idempotent: a ∨ a == a.
    DependencyVector aa = a;
    aa.Merge(a);
    EXPECT_EQ(aa, a);

    // Monotone: every entry of a and of b is ≤ the merged entry.
    for (const auto& [msp, id] : a.entries()) {
      auto merged = ab.Get(msp);
      ASSERT_TRUE(merged.has_value());
      EXPECT_TRUE(id <= *merged);
    }
  }
}

TEST_P(DvAlgebraTest, SerializationRoundTripsRandomDvs) {
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 100; ++round) {
    DependencyVector a = RandomDv(&rng, 6);
    BinaryWriter w;
    a.EncodeTo(&w);
    DependencyVector b;
    BinaryReader r(w.buffer());
    ASSERT_TRUE(b.DecodeFrom(&r).ok());
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvAlgebraTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Log record codec fuzz: random well-formed records round-trip; random bytes
// never crash the decoder.
// ---------------------------------------------------------------------------

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    LogRecord r;
    r.type = static_cast<LogRecordType>(1 + rng.Uniform(11));
    r.session_id = Bytes(rng.Uniform(20), 's');
    r.var_id = Bytes(rng.Uniform(10), 'v');
    r.seqno = rng.Uniform(1 << 20);
    r.target = Bytes(rng.Uniform(12), 't');
    r.payload = MakePayload(rng.Uniform(4096), rng.Next());
    r.has_dv = rng.Chance(0.5);
    if (r.has_dv) {
      int n = static_cast<int>(rng.Uniform(4));
      for (int k = 0; k < n; ++k) {
        r.dv.Set("m" + std::to_string(k),
                 {static_cast<uint32_t>(rng.Uniform(4)), rng.Uniform(1 << 30)});
      }
    }
    r.prev_lsn = rng.Uniform(1 << 30);
    r.peer = Bytes(rng.Uniform(8), 'p');
    r.peer_epoch = static_cast<uint32_t>(rng.Uniform(16));
    r.peer_recovered_sn = rng.Uniform(1 << 30);
    r.aux = static_cast<uint8_t>(rng.Uniform(3));

    LogRecord out;
    ASSERT_TRUE(LogRecord::Decode(r.Encode(), &out).ok());
    EXPECT_EQ(out.type, r.type);
    EXPECT_EQ(out.session_id, r.session_id);
    EXPECT_EQ(out.var_id, r.var_id);
    EXPECT_EQ(out.seqno, r.seqno);
    EXPECT_EQ(out.target, r.target);
    EXPECT_EQ(out.payload, r.payload);
    EXPECT_EQ(out.has_dv, r.has_dv);
    EXPECT_EQ(out.dv, r.dv);
    EXPECT_EQ(out.prev_lsn, r.prev_lsn);
    EXPECT_EQ(out.peer, r.peer);
    EXPECT_EQ(out.peer_epoch, r.peer_epoch);
    EXPECT_EQ(out.peer_recovered_sn, r.peer_recovered_sn);
    EXPECT_EQ(out.aux, r.aux);
  }
}

TEST_P(CodecFuzzTest, RandomBytesNeverCrashDecoder) {
  Rng rng(GetParam() * 31337);
  for (int i = 0; i < 500; ++i) {
    Bytes junk = MakePayload(rng.Uniform(200), rng.Next());
    LogRecord r;
    (void)LogRecord::Decode(junk, &r);  // must not crash / UB
    Message m;
    (void)Message::Decode(junk, &m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Position-stream skip ranges: the Fig. 11 disjoint and embedded (orphan,
// EOS) combinations remove exactly the right positions.
// ---------------------------------------------------------------------------

TEST(PositionSkipTest, EmbeddedRangesNest) {
  PositionStream ps;
  for (uint64_t i = 1; i <= 10; ++i) ps.Add(i * 10);
  // Inner skip [40,60] then outer skip [20,90]: the embedded case.
  ps.RemoveRange(40, 60);
  ps.RemoveRange(20, 90);
  auto all = ps.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], 10u);
  EXPECT_EQ(all[1], 100u);
}

TEST(PositionSkipTest, DisjointRanges) {
  PositionStream ps;
  for (uint64_t i = 1; i <= 10; ++i) ps.Add(i * 10);
  ps.RemoveRange(20, 30);
  ps.RemoveRange(70, 80);
  auto all = ps.All();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0], 10u);
  EXPECT_EQ(all[1], 40u);
  EXPECT_EQ(all.back(), 100u);
}

// ---------------------------------------------------------------------------
// Log write/scan property: whatever mix of record sizes and flush points,
// scanning returns exactly the appended sequence.
// ---------------------------------------------------------------------------

class LogScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogScanPropertyTest, ScanEqualsAppendHistory) {
  Rng rng(GetParam());
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  std::vector<std::pair<uint64_t, uint64_t>> appended;  // (lsn, seqno)
  uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    LogRecord r;
    r.type = LogRecordType::kRequestReceive;
    r.session_id = "s";
    r.seqno = ++seq;
    r.payload = MakePayload(rng.Uniform(2000), rng.Next());
    appended.push_back({log.Append(r), seq});
    if (rng.Chance(0.15)) {
      ASSERT_TRUE(log.FlushAll().ok());
    }
  }
  ASSERT_TRUE(log.FlushAll().ok());
  LogScanner scanner(&disk, "log", 0, disk.FileSize("log"));
  size_t n = 0;
  LogRecord r;
  while (scanner.Next(&r).ok()) {
    ASSERT_LT(n, appended.size());
    EXPECT_EQ(r.lsn, appended[n].first);
    EXPECT_EQ(r.seqno, appended[n].second);
    ++n;
  }
  EXPECT_EQ(n, appended.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogScanPropertyTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace msplog
