// Unit tests for supporting infrastructure: thread pool, domain directory,
// session checkpoint codec, MSP checkpoint codec, shared-variable basics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "msp/msp_checkpoint_format.h"
#include "msp/service_domain.h"
#include "msp/session.h"
#include "msp/shared_variable.h"
#include "msp/thread_pool.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      counter.fetch_add(1);
    });
  }
  pool.Shutdown();  // must run everything already queued
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, AbortDiscardsQueue) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::atomic<bool> block{true};
  pool.Submit([&] {
    while (block.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  std::thread unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    block.store(false);
  });
  pool.Abort();  // queued-but-unstarted tasks are dropped
  unblocker.join();
  EXPECT_LT(counter.load(), 50);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ParallelismIsReal) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int expect = peak.load();
      while (now > expect && !peak.compare_exchange_weak(expect, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  pool.Shutdown();
  EXPECT_GE(peak.load(), 2);
}

TEST(DomainDirectoryTest, Membership) {
  DomainDirectory dir;
  dir.Assign("a", "d1");
  dir.Assign("b", "d1");
  dir.Assign("c", "d2");
  EXPECT_TRUE(dir.SameDomain("a", "b"));
  EXPECT_FALSE(dir.SameDomain("a", "c"));
  EXPECT_FALSE(dir.SameDomain("a", "client"));  // end clients: no domain
  EXPECT_FALSE(dir.SameDomain("client", "client"));
  EXPECT_EQ(*dir.DomainOf("a"), "d1");
  EXPECT_FALSE(dir.DomainOf("client").has_value());
}

TEST(DomainDirectoryTest, PeersExcludeSelfAndOtherDomains) {
  DomainDirectory dir;
  dir.Assign("a", "d1");
  dir.Assign("b", "d1");
  dir.Assign("c", "d1");
  dir.Assign("x", "d2");
  auto peers = dir.PeersOf("a");
  EXPECT_EQ(peers.size(), 2u);
  for (const auto& p : peers) {
    EXPECT_NE(p, "a");
    EXPECT_NE(p, "x");
  }
  EXPECT_TRUE(dir.PeersOf("unknown").empty());
}

TEST(DomainDirectoryTest, ReassignmentMoves) {
  DomainDirectory dir;
  dir.Assign("a", "d1");
  dir.Assign("b", "d1");
  dir.Assign("b", "d2");
  EXPECT_FALSE(dir.SameDomain("a", "b"));
}

TEST(SessionCheckpointCodecTest, RoundTripsFullState) {
  Session s("se1", "cli");
  s.vars["alpha"] = MakePayload(512, 1);
  s.vars["beta"] = "";
  s.dv.Set("msp2", {3, 777});
  s.state_number = 4242;
  s.next_expected_seqno = 19;
  s.buffered_reply = {true, 18, ReplyCode::kAppError, "boom"};
  s.outgoing["msp2"] = {"msp2", "m/se1>msp2", 7};

  Bytes blob = s.EncodeCheckpoint();
  Session t("se1", "cli");
  ASSERT_TRUE(t.DecodeCheckpoint(blob).ok());
  EXPECT_EQ(t.vars.size(), 2u);
  EXPECT_EQ(t.vars["alpha"], MakePayload(512, 1));
  EXPECT_EQ(t.dv.Get("msp2")->sn, 777u);
  EXPECT_EQ(t.state_number, 4242u);
  EXPECT_EQ(t.next_expected_seqno, 19u);
  EXPECT_TRUE(t.buffered_reply.valid);
  EXPECT_EQ(t.buffered_reply.seqno, 18u);
  EXPECT_EQ(t.buffered_reply.code, ReplyCode::kAppError);
  EXPECT_EQ(t.buffered_reply.payload, "boom");
  ASSERT_EQ(t.outgoing.count("msp2"), 1u);
  EXPECT_EQ(t.outgoing["msp2"].next_seqno, 7u);
  EXPECT_EQ(t.outgoing["msp2"].session_id, "m/se1>msp2");
}

TEST(SessionCheckpointCodecTest, CorruptBlobRejected) {
  Session s("se1", "cli");
  EXPECT_FALSE(s.DecodeCheckpoint("garbage").ok());
}

TEST(MspCheckpointCodecTest, RoundTrip) {
  MspCheckpointData data;
  data.table.Record("msp2", 1, 500);
  data.table.Record("msp3", 2, 900);
  data.sessions.push_back({"se1", "cli1", 1000, 512});
  data.sessions.push_back({"se2", "cli2", 0, 2048});
  data.vars.push_back({"SV0", 4096, true});
  data.vars.push_back({"SV1", 0, false});

  MspCheckpointData out;
  ASSERT_TRUE(out.Decode(data.Encode()).ok());
  EXPECT_EQ(*out.table.RecoveredSn("msp2", 1), 500u);
  ASSERT_EQ(out.sessions.size(), 2u);
  EXPECT_EQ(out.sessions[0].id, "se1");
  EXPECT_EQ(out.sessions[0].last_checkpoint_lsn, 1000u);
  EXPECT_EQ(out.sessions[1].first_lsn, 2048u);
  ASSERT_EQ(out.vars.size(), 2u);
  EXPECT_EQ(out.vars[0].name, "SV0");
  EXPECT_TRUE(out.vars[0].has_writes);
  EXPECT_FALSE(out.vars[1].has_writes);
}

TEST(MspCheckpointCodecTest, EmptyCheckpoint) {
  MspCheckpointData data;
  MspCheckpointData out;
  ASSERT_TRUE(out.Decode(data.Encode()).ok());
  EXPECT_TRUE(out.sessions.empty());
  EXPECT_TRUE(out.vars.empty());
  EXPECT_TRUE(out.table.empty());
}

TEST(SharedVariableTest, InitialState) {
  SharedVariable v("x", "init");
  EXPECT_EQ(v.value, "init");
  EXPECT_EQ(v.initial_value, "init");
  EXPECT_EQ(v.state_number, 0u);
  EXPECT_EQ(v.last_write_lsn, 0u);
  EXPECT_TRUE(v.dv.empty());
}

}  // namespace
}  // namespace msplog
