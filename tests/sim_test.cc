// Unit tests for the simulation substrate: SimEnvironment time scaling,
// SimDisk durability + latency model, SimNetwork delivery and fault
// injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

TEST(SimEnvTest, ZeroScaleSleepsAreInstant) {
  SimEnvironment env(0.0);
  uint64_t t0 = env.ElapsedRealNs();
  env.SleepModelMs(1000.0);
  EXPECT_LT(env.ElapsedRealNs() - t0, 5'000'000u);  // < 5 ms real
}

TEST(SimEnvTest, ScaledSleepIsAccurate) {
  SimEnvironment env(0.1);
  uint64_t t0 = env.ElapsedRealNs();
  env.SleepModelMs(10.0);  // 1 ms real
  uint64_t dt = env.ElapsedRealNs() - t0;
  EXPECT_GE(dt, 900'000u);
  EXPECT_LT(dt, 3'000'000u);
}

TEST(SimEnvTest, ModelClockDividesByScale) {
  SimEnvironment env(0.1);
  env.SleepModelMs(20.0);
  double now = env.NowModelMs();
  EXPECT_GE(now, 18.0);
  EXPECT_LT(now, 40.0);
}

// Every model-time timeout converts in one place; this table pins that none
// changed value.
TEST(SimEnvTest, RealTimeoutScalesModelMsAboveAFloor) {
  struct Case {
    double scale;
    double model_ms;
    int64_t real_ms;
  };
  const int64_t floor_ms = SimEnvironment::kSanitized ? 40 : 2;
  for (const Case& c : {Case{0.0, 400.0, floor_ms}, Case{0.0, 10.0, floor_ms},
                        Case{0.05, 400.0, 20}, Case{0.02, 250.0, 5},
                        Case{0.02, 10.0, 1}}) {
    EXPECT_EQ(SimEnvironment(c.scale).RealTimeout(c.model_ms).count(),
              c.real_ms)
        << c.model_ms << " model ms at scale " << c.scale;
  }
}

TEST(DiskGeometryTest, PaperFlushFormula) {
  DiskGeometry g;  // paper defaults: 7200 RPM, 63 sectors/track, tts 1.2 ms
  // TF2 = 60000/7200/2 + 2/63*60000/7200 + 2/63*1.2 ≈ 4.47 ms (§5.2).
  double tf2 = g.WriteLatencyMs(2);
  EXPECT_NEAR(tf2, 60000.0 / 7200 / 2 + 2.0 / 63 * 60000.0 / 7200 +
                       2.0 / 63 * 1.2,
              1e-9);
  EXPECT_NEAR(tf2, 4.47, 0.05);
  // Monotone in sector count.
  EXPECT_LT(g.WriteLatencyMs(1), g.WriteLatencyMs(128));
}

TEST(SimDiskTest, WriteReadRoundTrip) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  ASSERT_TRUE(disk.WriteAt("f", 0, "hello world").ok());
  Bytes out;
  ASSERT_TRUE(disk.ReadAt("f", 0, 11, &out).ok());
  EXPECT_EQ(out, "hello world");
  ASSERT_TRUE(disk.ReadAt("f", 6, 100, &out).ok());
  EXPECT_EQ(out, "world");  // short read at EOF
}

TEST(SimDiskTest, SparseWriteZeroFills) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  ASSERT_TRUE(disk.WriteAt("f", 10, "x").ok());
  EXPECT_EQ(disk.FileSize("f"), 11u);
  Bytes out;
  ASSERT_TRUE(disk.ReadAt("f", 0, 11, &out).ok());
  EXPECT_EQ(out.substr(0, 10), Bytes(10, '\0'));
}

TEST(SimDiskTest, AppendGrowsFile) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  ASSERT_TRUE(disk.Append("f", "abc").ok());
  ASSERT_TRUE(disk.Append("f", "def").ok());
  EXPECT_EQ(disk.FileSize("f"), 6u);
  Bytes out;
  ASSERT_TRUE(disk.ReadAt("f", 0, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
}

TEST(SimDiskTest, ReadMissingFileIsNotFound) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  Bytes out;
  EXPECT_TRUE(disk.ReadAt("nope", 0, 1, &out).IsNotFound());
}

TEST(SimDiskTest, TruncateAndDelete) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  ASSERT_TRUE(disk.Append("f", "abcdef").ok());
  ASSERT_TRUE(disk.Truncate("f", 3).ok());
  EXPECT_EQ(disk.FileSize("f"), 3u);
  ASSERT_TRUE(disk.Delete("f").ok());
  EXPECT_FALSE(disk.Exists("f"));
  EXPECT_TRUE(disk.Delete("f").IsNotFound());
}

TEST(SimDiskTest, StatsCountSectors) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  auto before = env.stats().Snap();
  disk.WriteAt("f", 0, Bytes(1000, 'x'));  // 2 sectors
  auto after = env.stats().Snap();
  EXPECT_EQ(after.disk_flushes - before.disk_flushes, 1u);
  EXPECT_EQ(after.disk_sectors_written - before.disk_sectors_written, 2u);
}

TEST(SimDiskTest, LatencyChargedWhenScaled) {
  SimEnvironment env(0.05);
  DiskGeometry g;
  g.os_interference_prob = 0.0;  // deterministic
  SimDisk disk(&env, "d", g);
  uint64_t t0 = env.ElapsedRealNs();
  disk.WriteAt("f", 0, Bytes(512, 'x'));  // TF1 ≈ 4.3 ms model ≈ 215 µs real
  uint64_t dt = env.ElapsedRealNs() - t0;
  EXPECT_GE(dt, 150'000u);
}

// A PopUntil deadline `ms` of real time from now.
uint64_t InRealMs(const SimEnvironment& env, uint64_t ms) {
  return env.ElapsedRealNs() + ms * 1'000'000;
}

TEST(SimNetworkTest, DeliversImmediatelyAtZeroScale) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  auto mb = net.Register("b");
  net.Send("a", "b", "payload");
  Packet p;
  ASSERT_TRUE(mb->PopUntil(&p, InRealMs(env, 1000)));
  EXPECT_EQ(p.from, "a");
  EXPECT_EQ(p.wire, "payload");
  net.Shutdown();
}

TEST(SimNetworkTest, UnregisteredDestinationDropsPacket) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  auto mb = net.Register("b");
  net.Unregister("b");
  net.Send("a", "b", "x");
  Packet p;
  EXPECT_FALSE(mb->PopUntil(&p, InRealMs(env, 50)));
  net.Shutdown();
}

TEST(SimNetworkTest, DropFaultLosesMessages) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  auto mb = net.Register("b");
  FaultPlan plan;
  plan.drop_prob = 1.0;
  net.SetFaults("a", "b", plan);
  for (int i = 0; i < 10; ++i) net.Send("a", "b", "x");
  Packet p;
  EXPECT_FALSE(mb->PopUntil(&p, InRealMs(env, 50)));
  EXPECT_EQ(env.stats().messages_dropped.load(), 10u);
  net.Shutdown();
}

TEST(SimNetworkTest, DuplicateFaultDoublesDelivery) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  auto mb = net.Register("b");
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  net.SetFaults("a", "b", plan);
  net.Send("a", "b", "x");
  Packet p;
  ASSERT_TRUE(mb->PopUntil(&p, InRealMs(env, 1000)));
  ASSERT_TRUE(mb->PopUntil(&p, InRealMs(env, 1000)));
  net.Shutdown();
}

TEST(SimNetworkTest, ScaledLatencyDelaysDelivery) {
  SimEnvironment env(0.1);
  SimNetwork net(&env);
  net.set_default_one_way_ms(10.0);  // 1 ms real
  auto mb = net.Register("b");
  net.Send("a", "b", "x");
  Packet p;
  EXPECT_FALSE(mb->PopUntil(&p, env.ElapsedRealNs()));  // not yet
  ASSERT_TRUE(mb->PopUntil(&p, InRealMs(env, 1000)));
  net.Shutdown();
}

TEST(SimNetworkTest, BandwidthTermScalesWithSize) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  net.set_default_one_way_ms(1.0);
  net.set_bandwidth_mbps(100.0);
  // 8 KB at 100 Mbps ≈ 0.655 ms extra.
  double small = net.OneWayMs("a", "b", 100);
  double large = net.OneWayMs("a", "b", 8192);
  EXPECT_NEAR(large - small, (8192.0 - 100.0) * 8.0 / (100.0 * 1000.0), 1e-9);
  net.Shutdown();
}

// Per-link FIFO holds whether packets are due when sent or delayed.
class SimNetworkFifoTest : public ::testing::TestWithParam<double> {};

TEST_P(SimNetworkFifoTest, FifoWithoutJitter) {
  SimEnvironment env(GetParam());
  SimNetwork net(&env);
  net.set_default_one_way_ms(1.7);
  auto mb = net.Register("b");
  for (int i = 0; i < 100; ++i) {
    net.Send("a", "b", Bytes(1, static_cast<char>(i)));
  }
  for (int i = 0; i < 100; ++i) {
    Packet p;
    ASSERT_TRUE(mb->PopUntil(&p, InRealMs(env, 1000)));
    EXPECT_EQ(p.wire[0], static_cast<char>(i));
  }
  net.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(TimeScales, SimNetworkFifoTest,
                         ::testing::Values(0.0, 0.05));

// Wall-clock stamp carried in a packet's payload.
Bytes StampNs(uint64_t ns) {
  return Bytes(reinterpret_cast<const char*>(&ns), sizeof(ns));
}
uint64_t ReadStampNs(const Bytes& wire) {
  uint64_t ns = 0;
  memcpy(&ns, wire.data(), sizeof(ns));
  return ns;
}

TEST(SimNetworkTest, DelayedPacketArrivesOnTime) {
  if (SimEnvironment::kSanitized) {
    GTEST_SKIP() << "sanitized build: real-time accuracy not expected";
  }
  // A 1.7 ms link at time_scale 0.05 is 85 µs of real time. The receiver
  // is blocked in Pop when each packet is sent, one packet at a time.
  SimEnvironment env(0.05);
  SimNetwork net(&env);
  net.set_bandwidth_mbps(0);  // exactly 85 µs, whatever the size
  net.SetLinkLatency("a", "b", 1.7);
  constexpr uint64_t kLinkNs = 85'000;
  constexpr int kPackets = 200;
  auto mb = net.Register("b");
  std::vector<int64_t> lateness_ns;
  std::atomic<int> popped{0};
  std::thread receiver([&] {
    Packet p;
    while (mb->Pop(&p)) {
      lateness_ns.push_back(static_cast<int64_t>(env.ElapsedRealNs() -
                                                 ReadStampNs(p.wire)) -
                            static_cast<int64_t>(kLinkNs));
      popped.fetch_add(1, std::memory_order_release);
    }
  });
  for (int i = 0; i < kPackets; ++i) {
    // Let the receiver park before the next send.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    net.Send("a", "b", StampNs(env.ElapsedRealNs()));
    while (popped.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
  }
  net.Unregister("b");
  receiver.join();
  ASSERT_EQ(lateness_ns.size(), static_cast<size_t>(kPackets));
  std::sort(lateness_ns.begin(), lateness_ns.end());
  EXPECT_GE(lateness_ns.front(), 0) << "a packet arrived early";
  EXPECT_LT(lateness_ns[kPackets / 2], 30'000)
      << "median lateness " << lateness_ns[kPackets / 2] << " ns real";
}

TEST(SimNetworkTest, JitterDeliversInArrivalOrder) {
  // 20 packets sent back to back, each with its own jitter over a 1 ms
  // real spread. The receiver pops them after every one is due: they come
  // out by arrival time, not by send order.
  constexpr double kScale = 0.05;
  constexpr double kJitterMs = 20.0;
  constexpr int kPackets = 20;
  SimEnvironment env(kScale);
  SimNetwork net(&env, /*seed=*/11);
  net.set_bandwidth_mbps(0);
  net.SetLinkLatency("a", "b", 1.7);
  FaultPlan plan;
  plan.reorder_jitter_ms = kJitterMs;
  net.SetFaults("a", "b", plan);
  auto mb = net.Register("b");
  // The network draws one jitter per packet from its seeded Rng.
  Rng rng(11);
  std::vector<double> jitter_ms(kPackets);
  for (double& j : jitter_ms) j = rng.NextDouble() * kJitterMs;
  const uint64_t t0 = env.ElapsedRealNs();
  for (int i = 0; i < kPackets; ++i) {
    net.Send("a", "b", Bytes(1, static_cast<char>(i)));
  }
  const uint64_t burst_ns = env.ElapsedRealNs() - t0;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<int> order;
  Packet p;
  while (order.size() < kPackets && mb->PopUntil(&p, InRealMs(env, 1000))) {
    order.push_back(p.wire[0]);
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kPackets));
  std::vector<int> sent_order(kPackets);
  for (int i = 0; i < kPackets; ++i) sent_order[i] = i;
  EXPECT_NE(order, sent_order) << "no packet overtook another";
  // Packet i arrives within [t0, t0 + burst] + its delay, so any pair whose
  // jitters differ by more than the burst has a known order.
  const double burst_ms = static_cast<double>(burst_ns) / 1e6 / kScale;
  for (int a = 0; a < kPackets; ++a) {
    for (int b = a + 1; b < kPackets; ++b) {
      const int i = order[a], j = order[b];
      EXPECT_LE(jitter_ms[i], jitter_ms[j] + burst_ms)
          << "packet " << i << " popped before packet " << j
          << " which arrived earlier";
    }
  }
  net.Shutdown();
}

TEST(SimNetworkTest, UnregisterLosesDelayedPacketAndWakesReceiver) {
  // A 2 s link at time_scale 0.05 is 100 ms of real time.
  SimEnvironment env(0.05);
  SimNetwork net(&env);
  net.SetLinkLatency("a", "b", 2000.0);
  auto mb = net.Register("b");
  std::atomic<bool> popped{false};
  std::atomic<uint64_t> returned_ns{0};
  std::thread receiver([&] {
    Packet p;
    popped = mb->Pop(&p);
    returned_ns = env.ElapsedRealNs();
  });
  net.Send("a", "b", "doomed");
  // The receiver is now asleep until the packet's arrival time.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const uint64_t unregistered_ns = env.ElapsedRealNs();
  net.Unregister("b");
  receiver.join();
  EXPECT_FALSE(popped) << "a packet to a dead receiver was delivered";
  // Woken by Unregister, not by the arrival time or the 50 ms re-poll.
  EXPECT_LT(returned_ns - unregistered_ns, 40'000'000u);

  // A packet belongs to the incarnation registered when it was sent: a new
  // registration under the same name does not receive it.
  net.Register("b");
  net.Send("a", "b", "to-the-old-b");  // due in 100 ms real
  net.Unregister("b");
  auto reborn = net.Register("b");
  Packet p;
  EXPECT_FALSE(reborn->PopUntil(&p, InRealMs(env, 250)));
  net.Shutdown();
}

TEST(MailboxTest, CloseWakesBlockedPop) {
  SimEnvironment env(0.0);
  Mailbox mb(&env);
  std::atomic<bool> returned{false};
  std::thread t([&] {
    Packet p;
    EXPECT_FALSE(mb.Pop(&p));
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.Close();
  t.join();
  EXPECT_TRUE(returned);
}

}  // namespace
}  // namespace msplog
