// Unit tests for the physical log: record encoding, sector-aligned framing,
// flush semantics, crash (volatile loss), group commit, scanner, anchor,
// position streams.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "log/log_anchor.h"
#include "log/log_file.h"
#include "log/log_record.h"
#include "log/log_scanner.h"
#include "log/position_stream.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {
namespace {

LogRecord MakeRequestRecord(const std::string& session, uint64_t seqno,
                            const std::string& method, Bytes payload) {
  LogRecord r;
  r.type = LogRecordType::kRequestReceive;
  r.session_id = session;
  r.seqno = seqno;
  r.target = method;
  r.payload = std::move(payload);
  return r;
}

class LogFileTest : public ::testing::Test {
 protected:
  LogFileTest() : env_(0.0), disk_(&env_, "d") {}
  SimEnvironment env_;
  SimDisk disk_;
};

TEST_F(LogFileTest, RecordEncodeDecodeRoundTrip) {
  LogRecord r = MakeRequestRecord("se1", 42, "m", MakePayload(100, 1));
  r.has_dv = true;
  r.dv.Set("msp1", {2, 1000});
  r.dv.Set("msp2", {1, 2000});
  r.prev_lsn = 77;
  r.peer = "msp3";
  r.peer_epoch = 5;
  r.peer_recovered_sn = 999;
  r.aux = 2;
  LogRecord out;
  ASSERT_TRUE(LogRecord::Decode(r.Encode(), &out).ok());
  EXPECT_EQ(out.type, r.type);
  EXPECT_EQ(out.session_id, "se1");
  EXPECT_EQ(out.seqno, 42u);
  EXPECT_EQ(out.target, "m");
  EXPECT_EQ(out.payload, r.payload);
  EXPECT_TRUE(out.has_dv);
  EXPECT_EQ(out.dv, r.dv);
  EXPECT_EQ(out.prev_lsn, 77u);
  EXPECT_EQ(out.peer, "msp3");
  EXPECT_EQ(out.peer_epoch, 5u);
  EXPECT_EQ(out.peer_recovered_sn, 999u);
  EXPECT_EQ(out.aux, 2);
}

TEST_F(LogFileTest, DecodeGarbageIsCorruption) {
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode("", &out).IsCorruption());
  EXPECT_TRUE(LogRecord::Decode("\xFFgarbage", &out).IsCorruption());
}

TEST_F(LogFileTest, AppendAssignsMonotonicLsns) {
  LogFile log(&env_, &disk_, "log");
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t lsn = log.Append(MakeRequestRecord("s", i, "m", "x"));
    if (i > 0) {
      EXPECT_GT(lsn, prev);
    }
    prev = lsn;
  }
}

TEST_F(LogFileTest, FlushMakesDurableAndSectorAligned) {
  LogFile log(&env_, &disk_, "log");
  uint64_t lsn = log.Append(MakeRequestRecord("s", 1, "m", MakePayload(100)));
  EXPECT_EQ(lsn, 512u);                  // first record after reserved sector
  EXPECT_EQ(log.durable_lsn(), 512u);    // nothing flushed yet
  ASSERT_TRUE(log.FlushUpTo(lsn).ok());
  EXPECT_GT(log.durable_lsn(), lsn);
  EXPECT_EQ(log.durable_lsn() % 512, 0u);           // sector aligned
  EXPECT_EQ(disk_.FileSize("log") % 512, 0u);
  // Next append starts at the padded boundary.
  uint64_t lsn2 = log.Append(MakeRequestRecord("s", 2, "m", "y"));
  EXPECT_EQ(lsn2 % 512, 0u);
}

TEST_F(LogFileTest, HalfSectorWastePerFlush) {
  LogFile log(&env_, &disk_, "log");
  auto before = env_.stats().Snap();
  uint64_t lsn = log.Append(MakeRequestRecord("s", 1, "m", MakePayload(100)));
  ASSERT_TRUE(log.FlushUpTo(lsn).ok());
  auto after = env_.stats().Snap();
  EXPECT_GT(after.disk_bytes_wasted, before.disk_bytes_wasted);
  EXPECT_LT(after.disk_bytes_wasted - before.disk_bytes_wasted, 512u);
}

TEST_F(LogFileTest, FlushUpToIsIdempotent) {
  LogFile log(&env_, &disk_, "log");
  uint64_t lsn = log.Append(MakeRequestRecord("s", 1, "m", "x"));
  ASSERT_TRUE(log.FlushUpTo(lsn).ok());
  auto before = env_.stats().Snap();
  ASSERT_TRUE(log.FlushUpTo(lsn).ok());  // already durable: no I/O
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.disk_flushes, before.disk_flushes);
}

TEST_F(LogFileTest, FlushBeyondEndIsInvalid) {
  LogFile log(&env_, &disk_, "log");
  EXPECT_TRUE(log.FlushUpTo(12345).code() == StatusCode::kInvalidArgument);
}

TEST_F(LogFileTest, ReadRecordAtServesBufferAndDisk) {
  LogFile log(&env_, &disk_, "log");
  uint64_t l1 = log.Append(MakeRequestRecord("s", 1, "m", "first"));
  ASSERT_TRUE(log.FlushUpTo(l1).ok());
  uint64_t l2 = log.Append(MakeRequestRecord("s", 2, "m", "second"));

  LogRecord r;
  auto disk_reads = [this] { return env_.stats().disk_reads.load(); };
  uint64_t before = disk_reads();
  ASSERT_TRUE(log.ReadRecordAt(l1, &r).ok());  // durable
  EXPECT_EQ(r.payload, "first");
  EXPECT_EQ(disk_reads() - before, 2u);  // header, then body
  ASSERT_TRUE(log.ReadRecordAt(l2, &r).ok());  // buffered
  EXPECT_EQ(r.payload, "second");
  EXPECT_EQ(r.lsn, l2);

  // A bad durable frame is Corruption. The padding after l1 up to the
  // sector boundary is one header read; a flipped body byte fails the CRC.
  ASSERT_EQ(l2 % disk_.geometry().sector_bytes, 0u);
  before = disk_reads();
  EXPECT_TRUE(log.ReadRecordAt(l2 - kFrameHeaderBytes, &r).IsCorruption());
  EXPECT_EQ(disk_reads() - before, 1u);
  Bytes byte;
  ASSERT_TRUE(disk_.ReadAt("log", l1 + kFrameHeaderBytes + 1, 1, &byte).ok());
  byte[0] = static_cast<char>(byte[0] ^ 0x5A);
  ASSERT_TRUE(disk_.WriteAt("log", l1 + kFrameHeaderBytes + 1, byte).ok());
  before = disk_reads();
  EXPECT_TRUE(log.ReadRecordAt(l1, &r).IsCorruption());
  EXPECT_EQ(disk_reads() - before, 2u);
}

TEST_F(LogFileTest, CrashLosesBufferKeepsDurable) {
  uint64_t l1;
  {
    LogFile log(&env_, &disk_, "log");
    l1 = log.Append(MakeRequestRecord("s", 1, "m", "durable"));
    ASSERT_TRUE(log.FlushUpTo(l1).ok());
    log.Append(MakeRequestRecord("s", 2, "m", "volatile"));
    log.Crash();
  }
  LogFile log2(&env_, &disk_, "log");
  LogRecord r;
  ASSERT_TRUE(log2.ReadRecordAt(l1, &r).ok());
  EXPECT_EQ(r.payload, "durable");
  // The volatile record is gone; the new end is the durable boundary.
  EXPECT_EQ(log2.end_lsn(), log2.durable_lsn());
}

TEST_F(LogFileTest, CrashFailsFlushWaiters) {
  LogFile log(&env_, &disk_, "log");
  log.Crash();
  LogRecord rec = MakeRequestRecord("s", 1, "m", "x");
  uint64_t lsn = log.Append(rec);
  EXPECT_TRUE(log.FlushUpTo(lsn).IsCrashed());
}

TEST_F(LogFileTest, ResumesAfterDurablePrefix) {
  uint64_t durable_end;
  {
    LogFile log(&env_, &disk_, "log");
    uint64_t l = log.Append(MakeRequestRecord("s", 1, "m", MakePayload(700)));
    ASSERT_TRUE(log.FlushUpTo(l).ok());
    durable_end = log.durable_lsn();
  }
  LogFile log2(&env_, &disk_, "log");
  uint64_t l2 = log2.Append(MakeRequestRecord("s", 2, "m", "x"));
  EXPECT_EQ(l2, durable_end);
}

TEST_F(LogFileTest, GroupCommitBatchesConcurrentFlushes) {
  LogFileOptions opts;
  opts.batch_flush = true;
  opts.batch_timeout_ms = 1.0;
  LogFile log(&env_, &disk_, "log", opts);
  constexpr int kThreads = 8;
  std::vector<uint64_t> lsns(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    lsns[i] = log.Append(MakeRequestRecord("s", i, "m", MakePayload(200, i)));
  }
  auto before = env_.stats().Snap();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { EXPECT_TRUE(log.FlushUpTo(lsns[i]).ok()); });
  }
  for (auto& t : threads) t.join();
  auto after = env_.stats().Snap();
  // All 8 flush requests should ride very few physical writes.
  EXPECT_LE(after.disk_flushes - before.disk_flushes, 3u);
  EXPECT_GT(log.durable_lsn(), lsns[kThreads - 1]);
}

// Parameter k: the first flush ends k bytes before a sector boundary (k = 0
// leaves no gap). Gaps of 1-3 zero bytes are shorter than a frame's length
// field, so the scanner must recognise them as padding without a length.
class ScannerGapTest : public LogFileTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(ScannerGapTest, ScannerSeesAllRecordsAcrossFlushBoundaries) {
  const uint64_t sector = disk_.geometry().sector_bytes;
  const uint64_t gap = static_cast<uint64_t>(GetParam());
  LogFile log(&env_, &disk_, "log");
  std::vector<uint64_t> lsns;
  // One record whose frame (and therefore the flush) ends `gap` bytes
  // before a sector boundary.
  size_t payload = 0;
  auto first = [&] {
    return MakeRequestRecord("s", 0, "m", MakePayload(payload));
  };
  while ((8 + first().EncodedSize()) % sector != (sector - gap) % sector) {
    ++payload;
  }
  size_t framed = 0;
  lsns.push_back(log.Append(first(), &framed));
  ASSERT_EQ((lsns[0] + framed) % sector, (sector - gap) % sector);
  ASSERT_TRUE(log.FlushAll().ok());
  // Multiple flushes create padding gaps the scanner must skip.
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 7; ++i) {
      lsns.push_back(log.Append(MakeRequestRecord(
          "s", 1 + batch * 7 + i, "m", MakePayload(90, i))));
    }
    ASSERT_TRUE(log.FlushAll().ok());
  }
  LogScanner scanner(&disk_, "log", 0, disk_.FileSize("log"));
  size_t n = 0;
  while (true) {
    LogRecord r;
    Status st = scanner.Next(&r);
    if (st.IsNotFound()) break;
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_LT(n, lsns.size());
    EXPECT_EQ(r.lsn, lsns[n]);
    EXPECT_EQ(r.seqno, n);
    ++n;
  }
  EXPECT_EQ(n, lsns.size());
}

INSTANTIATE_TEST_SUITE_P(GapBeforeSectorBoundary, ScannerGapTest,
                         ::testing::Range(0, 10));

TEST_F(LogFileTest, ScannerHandlesRecordsLargerThanChunk) {
  LogFile log(&env_, &disk_, "log");
  uint64_t l1 = log.Append(MakeRequestRecord("s", 1, "m", MakePayload(100)));
  uint64_t l2 =
      log.Append(MakeRequestRecord("s", 2, "m", MakePayload(100 * 1024)));
  uint64_t l3 = log.Append(MakeRequestRecord("s", 3, "m", MakePayload(100)));
  ASSERT_TRUE(log.FlushAll().ok());
  LogScanner scanner(&disk_, "log", 0, disk_.FileSize("log"));
  LogRecord r;
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.lsn, l1);
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.lsn, l2);
  EXPECT_EQ(r.payload.size(), 100u * 1024);
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.lsn, l3);
  EXPECT_TRUE(scanner.Next(&r).IsNotFound());
}

TEST_F(LogFileTest, ScannerStartsMidLog) {
  LogFile log(&env_, &disk_, "log");
  log.Append(MakeRequestRecord("s", 1, "m", "a"));
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t l2 = log.Append(MakeRequestRecord("s", 2, "m", "b"));
  ASSERT_TRUE(log.FlushAll().ok());
  LogScanner scanner(&disk_, "log", l2, disk_.FileSize("log"));
  LogRecord r;
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.seqno, 2u);
  EXPECT_TRUE(scanner.Next(&r).IsNotFound());
}

TEST_F(LogFileTest, ScannerStopsAtCorruptTail) {
  LogFile log(&env_, &disk_, "log");
  uint64_t l1 = log.Append(MakeRequestRecord("s", 1, "m", "good"));
  uint64_t l2 = log.Append(MakeRequestRecord("s", 2, "m", "to-corrupt"));
  ASSERT_TRUE(log.FlushAll().ok());
  // Flip a byte inside the second record's body.
  Bytes raw;
  ASSERT_TRUE(disk_.ReadAt("log", l2 + 12, 1, &raw).ok());
  raw[0] ^= 0x55;
  ASSERT_TRUE(disk_.WriteAt("log", l2 + 12, raw).ok());

  LogScanner scanner(&disk_, "log", 0, disk_.FileSize("log"));
  LogRecord r;
  ASSERT_TRUE(scanner.Next(&r).ok());
  EXPECT_EQ(r.lsn, l1);
  EXPECT_TRUE(scanner.Next(&r).IsCorruption());
}

// The scan reads each byte of [start, durable) once, in kChunkBytes pieces,
// and hands the bytes over: they equal a plain read of the range, and every
// record parses from them, CRC-checked.
TEST_F(LogFileTest, ScannerHandsOverTheRangeItRead) {
  LogFile log(&env_, &disk_, "log");
  std::vector<uint64_t> lsns;
  for (int batch = 0; batch < 40; ++batch) {
    for (int i = 0; i < 8; ++i) {
      lsns.push_back(log.Append(MakeRequestRecord(
          "s", lsns.size(), "m", MakePayload(700, lsns.size()))));
    }
    ASSERT_TRUE(log.FlushAll().ok());  // sector padding between batches
  }
  constexpr size_t kFirst = 3;  // start mid-sector, past the first records
  const uint64_t start = lsns[kFirst];
  const uint64_t durable = disk_.FileSize("log");
  const uint64_t range = durable - start;
  ASSERT_GT(range, 3 * LogScanner::kChunkBytes);

  const uint64_t reads_before = env_.stats().disk_reads.load();
  LogScanner scanner(&disk_, "log", start, durable);
  LogRecord r;
  size_t n = 0;
  while (scanner.Next(&r).ok()) ++n;
  EXPECT_EQ(n, lsns.size() - kFirst);
  EXPECT_EQ(env_.stats().disk_reads.load() - reads_before,
            (range + LogScanner::kChunkBytes - 1) / LogScanner::kChunkBytes);

  const ScanImage image = scanner.TakeImage();
  EXPECT_EQ(image.base, start);
  Bytes expected;
  ASSERT_TRUE(disk_.ReadAt("log", start, range, &expected).ok());
  EXPECT_TRUE(image.bytes == expected);
  for (size_t i = kFirst; i < lsns.size(); ++i) {
    ASSERT_TRUE(image.Holds(lsns[i]));
    ASSERT_TRUE(image.ReadRecordAt(lsns[i], &r).ok());
    EXPECT_EQ(r.seqno, i);
    EXPECT_EQ(r.lsn, lsns[i]);
  }
  EXPECT_FALSE(image.Holds(lsns[kFirst - 1]));
  EXPECT_FALSE(image.Holds(durable));

  ScanImage flipped = image;
  flipped.bytes[lsns[kFirst + 1] - start + 12] ^= 0x55;
  EXPECT_TRUE(flipped.ReadRecordAt(lsns[kFirst + 1], &r).IsCorruption());
}

TEST(LogAnchorTest, RoundTripAndMissing) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogAnchor anchor(&disk, "a");
  AnchorData out;
  EXPECT_TRUE(anchor.Read(&out).IsNotFound());
  ASSERT_TRUE(anchor.Write({12345, 7}).ok());
  ASSERT_TRUE(anchor.Read(&out).ok());
  EXPECT_EQ(out.msp_checkpoint_lsn, 12345u);
  EXPECT_EQ(out.epoch, 7u);
  // Overwrite wins.
  ASSERT_TRUE(anchor.Write({99, 8}).ok());
  ASSERT_TRUE(anchor.Read(&out).ok());
  EXPECT_EQ(out.msp_checkpoint_lsn, 99u);
  EXPECT_EQ(out.epoch, 8u);
}

TEST(LogAnchorTest, CorruptAnchorDetected) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogAnchor anchor(&disk, "a");
  ASSERT_TRUE(anchor.Write({1, 1}).ok());
  Bytes raw;
  ASSERT_TRUE(disk.ReadAt("a", 5, 1, &raw).ok());
  raw[0] ^= 0xFF;
  ASSERT_TRUE(disk.WriteAt("a", 5, raw).ok());
  AnchorData out;
  EXPECT_TRUE(anchor.Read(&out).IsCorruption());
}

// AnalyzeLog's one session rule: a shared write names its session only for
// attribution, an EOS never creates an entry, and a record after an end
// starts the session afresh.
TEST(LogAnalysisTest, SessionRuleForWritesCutsAndEnds) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  auto rec = [&](LogRecordType type, const std::string& session,
                 uint64_t seqno = 0) {
    LogRecord r;
    r.type = type;
    r.session_id = session;
    r.seqno = seqno;
    return r;
  };
  LogRecord start = rec(LogRecordType::kSessionStart, "s");
  start.target = "cli";
  log.Append(start);
  log.Append(rec(LogRecordType::kRequestReceive, "s", 1));
  log.Append(rec(LogRecordType::kRequestReceive, "s", 2));
  log.Append(rec(LogRecordType::kSessionEnd, "s"));
  const uint64_t again = log.Append(rec(LogRecordType::kRequestReceive, "s", 1));
  LogRecord write = rec(LogRecordType::kSharedWrite, "writer");
  write.var_id = "v";
  const uint64_t write_lsn = log.Append(write);
  LogRecord eos = rec(LogRecordType::kEos, "ghost");
  eos.prev_lsn = again;
  log.Append(eos);
  const uint64_t r1 = log.Append(rec(LogRecordType::kRequestReceive, "t", 1));
  const uint64_t r2 = log.Append(rec(LogRecordType::kReplyReceive, "t", 1));
  LogRecord cut = rec(LogRecordType::kEos, "t");
  cut.prev_lsn = r2;
  const uint64_t cut_lsn = log.Append(cut);
  const uint64_t r3 = log.Append(rec(LogRecordType::kRequestReceive, "t", 2));
  log.Append(rec(LogRecordType::kRequestReceive, "u", 1));
  log.Append(rec(LogRecordType::kSessionEnd, "u"));
  LogRecord peer;
  peer.type = LogRecordType::kRecoveredState;
  peer.peer = "beta";
  peer.peer_epoch = 3;
  peer.peer_recovered_sn = 77;
  log.Append(peer);
  ASSERT_TRUE(log.FlushAll().ok());

  LogAnalysis a;
  uint64_t visited = 0;
  ASSERT_TRUE(AnalyzeLog(&disk, "log", 0, disk.FileSize("log"), &a,
                         [&](const LogRecord&, uint64_t) { ++visited; })
                  .ok());
  EXPECT_EQ(a.records, 14u);
  EXPECT_EQ(visited, a.records);
  EXPECT_EQ(a.end, LogEnd::kClean);
  EXPECT_EQ(a.sessions.count("writer"), 0u);
  EXPECT_EQ(a.sessions.count("ghost"), 0u);

  const SessionAnalysis& s = a.sessions.at("s");
  EXPECT_TRUE(s.restarted);
  EXPECT_FALSE(s.ended);
  EXPECT_EQ(s.first_lsn, again);
  EXPECT_EQ(s.start_lsn, 0u);
  EXPECT_TRUE(s.client.empty());
  EXPECT_EQ(s.positions, std::vector<uint64_t>{again});
  ASSERT_EQ(s.requests.size(), 1u);
  EXPECT_EQ(s.requests[0].seqno, 1u);

  const SessionAnalysis& t = a.sessions.at("t");
  EXPECT_EQ(t.positions, (std::vector<uint64_t>{r1, r3}));
  ASSERT_EQ(t.cuts.size(), 1u);
  EXPECT_EQ(t.cuts[0].from_lsn, r2);
  EXPECT_EQ(t.cuts[0].to_lsn, cut_lsn);
  EXPECT_TRUE(a.sessions.at("u").ended);

  EXPECT_EQ(a.vars.at("v").last_lsn, write_lsn);
  EXPECT_EQ(a.vars.at("v").last_checkpoint_lsn, 0u);
  ASSERT_TRUE(a.recovered.RecoveredSn("beta", 3).has_value());
  EXPECT_EQ(*a.recovered.RecoveredSn("beta", 3), 77u);
}

TEST(PositionStreamTest, AddAndAll) {
  PositionStream ps;
  for (uint64_t i = 0; i < 10; ++i) ps.Add(i * 100);
  EXPECT_EQ(ps.size(), 10u);
  auto all = ps.All();
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[3], 300u);
}

TEST(PositionStreamTest, TruncateDropsEverything) {
  PositionStream ps;
  for (uint64_t i = 0; i < 6; ++i) ps.Add(i);
  ps.Truncate();
  EXPECT_EQ(ps.size(), 0u);
  EXPECT_TRUE(ps.All().empty());
}

TEST(PositionStreamTest, RemoveRangeCutsOrphanSpan) {
  PositionStream ps;
  for (uint64_t i = 0; i < 10; ++i) ps.Add(i * 10);
  ps.RemoveRange(30, 60);  // removes 30,40,50,60
  auto all = ps.All();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[2], 20u);
  EXPECT_EQ(all[3], 70u);
}

TEST(PositionStreamTest, ReplaceAllAfterCrashReconstruction) {
  PositionStream ps;
  for (uint64_t i = 0; i < 6; ++i) ps.Add(i);
  ps.ReplaceAll({100, 200, 300});
  auto all = ps.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 100u);
  ps.Add(400);  // appends continue from the rebuilt stream
  EXPECT_EQ(ps.All(), (std::vector<uint64_t>{100, 200, 300, 400}));
}

}  // namespace
}  // namespace msplog
