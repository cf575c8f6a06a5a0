// Tests for distributed-flush coalescing (the per-peer FlushAggregator and
// the receiver-side InboundFlushCoalescer): concurrent repliers share flush
// messages; a watermark never covers a leg of an ended epoch; a coalesced
// flight that fails authoritatively orphans every joined waiter exactly as
// per-leg flushes would; a crash mid-flight leaks no aggregator state; and
// turning the knob off reproduces the one-message-per-leg behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "msp/flush_aggregator.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "obs/metrics.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

// A small but nonzero time scale gives the flush round trip a real duration,
// so legs submitted by concurrently released workers actually overlap an
// in-flight request (at scale 0 the flight lands in microseconds and there
// is nothing to join).
constexpr double kTimeScale = 0.02;

class FlushCoalesceTest : public ::testing::Test {
 protected:
  FlushCoalesceTest()
      : env_(kTimeScale), net_(&env_), disk_a_(&env_, "da"),
        disk_b_(&env_, "db") {}

  void TearDown() override {
    gate_.store(1);
    if (alpha_) alpha_->Shutdown();
    if (beta_) beta_->Shutdown();
  }

  MspConfig Config(const std::string& id, bool coalesce) {
    MspConfig c;
    c.id = id;
    c.mode = RecoveryMode::kLogBased;
    c.checkpoint_daemon = false;
    c.session_checkpoint_threshold_bytes = 0;
    c.shared_var_checkpoint_threshold_writes = 0;
    // Generous: sanitizer builds run 10-20x slower and a fired timeout just
    // resends the in-flight request (legitimate, but noise in the counts).
    c.flush_timeout_ms = 500;
    c.thread_pool_size = 16;
    c.coalesce_distributed_flushes = coalesce;
    return c;
  }

  void BuildAndStart(bool coalesce) {
    net_.set_default_one_way_ms(1.0);
    directory_.Assign("alpha", "domA");
    directory_.Assign("beta", "domA");  // same domain: optimistic messages
    alpha_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_,
                                   Config("alpha", coalesce));
    beta_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_,
                                  Config("beta", coalesce));
    beta_->RegisterMethod("bcounter",
                          [](ServiceContext* ctx, const Bytes&, Bytes* r) {
                            Bytes cur = ctx->GetSessionVar("n");
                            int n = cur.empty() ? 0 : std::stoi(cur);
                            ctx->SetSessionVar("n", std::to_string(n + 1));
                            *r = std::to_string(n + 1);
                            return Status::OK();
                          });
    // Calls beta (so the reply's pessimistic boundary carries a flush leg to
    // beta), then parks until the test opens the gate — releasing many
    // parked sessions at once makes their flush legs concurrent. Replay
    // never parks: the gate only guards first execution.
    alpha_->RegisterMethod(
        "relay_gated", [this](ServiceContext* ctx, const Bytes&, Bytes* r) {
          MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "bcounter", "", r));
          arrivals_.fetch_add(1);
          while (!ctx->in_replay() && gate_.load() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status::OK();
        });
    // Touches no peer: its reply flushes only what the session already
    // depends on.
    alpha_->RegisterMethod("local", [](ServiceContext*, const Bytes&, Bytes* r) {
      *r = "ok";
      return Status::OK();
    });
    ASSERT_TRUE(beta_->Start().ok());
    ASSERT_TRUE(alpha_->Start().ok());
  }

  uint64_t Ctr(const std::string& name) {
    return env_.metrics().GetCounter(name)->Value();
  }

  /// Run `clients` sessions through one synchronized round of relay_gated:
  /// all park after their beta call, then the gate releases them together.
  /// Returns each session's reply.
  std::vector<Bytes> GatedRound(std::vector<ClientEndpoint*> endpoints,
                                std::vector<ClientSession*> sessions,
                                std::vector<Status>* statuses) {
    const size_t n = endpoints.size();
    std::vector<Bytes> replies(n);
    statuses->assign(n, Status::OK());
    arrivals_.store(0);
    gate_.store(0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        (*statuses)[c] = endpoints[c]->Call(sessions[c], "relay_gated", "",
                                            &replies[c]);
      });
    }
    while (arrivals_.load() < static_cast<int>(n)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate_.store(1);
    for (auto& t : threads) t.join();
    return replies;
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_;
  SimDisk disk_b_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> alpha_, beta_;
  std::atomic<int> gate_{0};
  std::atomic<int> arrivals_{0};
};

// Concurrently released repliers must share kFlushRequest round trips: with
// the aggregator on, the number of flush messages sent stays below the
// number of legs requested, and some legs ride a flight they didn't launch.
TEST_F(FlushCoalesceTest, ConcurrentRepliesShareFlushMessages) {
  BuildAndStart(/*coalesce=*/true);
  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  for (int c = 0; c < kClients; ++c) {
    eps.push_back(std::make_unique<ClientEndpoint>(
        &env_, &net_, "cli" + std::to_string(c)));
    sessions.push_back(eps.back()->StartSession("alpha"));
  }
  uint64_t legs0 = Ctr("flush.legs_requested");
  uint64_t sent0 = Ctr("flush.requests_sent");
  uint64_t saved0 = Ctr("flush.messages_saved");
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ClientEndpoint*> ep;
    std::vector<ClientSession*> se;
    for (int c = 0; c < kClients; ++c) {
      ep.push_back(eps[c].get());
      se.push_back(&sessions[c]);
    }
    std::vector<Status> statuses;
    std::vector<Bytes> replies = GatedRound(ep, se, &statuses);
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
      EXPECT_EQ(replies[c], std::to_string(round + 1));
    }
  }
  uint64_t legs = Ctr("flush.legs_requested") - legs0;
  uint64_t sent = Ctr("flush.requests_sent") - sent0;
  uint64_t saved = Ctr("flush.messages_saved") - saved0;
  EXPECT_GE(legs, uint64_t(kClients * kRounds));
  // The load-bearing claim: group commit actually shared messages.
  EXPECT_GT(saved, 0u);
  EXPECT_LT(sent, legs);
}

// With coalescing off every leg pays its own message: nothing is saved and
// the wire count matches the leg count (minus watermark fast-path skips).
TEST_F(FlushCoalesceTest, CoalescingOffSendsOneMessagePerLeg) {
  BuildAndStart(/*coalesce=*/false);
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  std::vector<ClientEndpoint*> ep;
  std::vector<ClientSession*> se;
  for (int c = 0; c < kClients; ++c) {
    eps.push_back(std::make_unique<ClientEndpoint>(
        &env_, &net_, "cli" + std::to_string(c)));
    sessions.push_back(eps.back()->StartSession("alpha"));
  }
  for (int c = 0; c < kClients; ++c) {
    ep.push_back(eps[c].get());
    se.push_back(&sessions[c]);
  }
  uint64_t legs0 = Ctr("flush.legs_requested");
  uint64_t sent0 = Ctr("flush.requests_sent");
  uint64_t skips0 = Ctr("flush.watermark_skips");
  std::vector<Status> statuses;
  std::vector<Bytes> replies = GatedRound(ep, se, &statuses);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    EXPECT_EQ(replies[c], "1");
  }
  EXPECT_EQ(Ctr("flush.legs_coalesced"), 0u);
  EXPECT_EQ(Ctr("flush.messages_saved"), 0u);
  // Every non-skipped leg pays its own message (timeout resends can only
  // add sends on top, so this is a lower bound).
  EXPECT_GE(Ctr("flush.requests_sent") - sent0,
            (Ctr("flush.legs_requested") - legs0) -
                (Ctr("flush.watermark_skips") - skips0));
}

// A watermark covers only legs of its own epoch. Once the peer's new epoch
// is confirmed durable up to 2:100, a leg of the ended epoch 1 must still go
// to the peer, whose recovered-state table decides whether it survived —
// here it did not, so the leg settles as an orphan.
TEST(FlushAggregatorTest, NewEpochWatermarkDoesNotCoverEndedEpoch) {
  SimEnvironment env(0.0);
  std::vector<Message> sent;
  FlushAggregator::Options opts;
  opts.self = "alpha";
  FlushAggregator agg(&env, opts, [&](const MspId&, const Bytes& wire) {
    Message m;
    ASSERT_TRUE(Message::Decode(wire, &m).ok());
    sent.push_back(m);
  });
  auto call = std::make_shared<FlushCall>();
  ASSERT_NE(agg.Submit("beta", StateId{2, 100}, call, {}), nullptr);
  ASSERT_EQ(sent.size(), 1u);
  Message ok;
  ok.type = MessageType::kFlushReply;
  ok.flush_id = sent[0].flush_id;
  ok.flush_ok = true;
  agg.HandleReply(ok);
  ASSERT_EQ(agg.WatermarkForTest("beta"), (StateId{2, 100}));
  EXPECT_EQ(agg.Submit("beta", StateId{2, 50}, call, {}), nullptr);

  auto old = agg.Submit("beta", StateId{1, 5000}, call, {});
  ASSERT_NE(old, nullptr);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].epoch, 1u);
  EXPECT_EQ(sent[1].flush_sn, 5000u);
  Message lost;
  lost.type = MessageType::kFlushReply;
  lost.flush_id = sent[1].flush_id;
  lost.rec_epoch = 1;
  lost.rec_sn = 4000;
  agg.HandleReply(lost);
  audit::LockGuard lk(old->call->mu);
  EXPECT_TRUE(old->settled);
  EXPECT_FALSE(old->ok);
  EXPECT_EQ(old->orphan_epoch, 1u);
  EXPECT_EQ(old->orphan_sn, 4000u);
}

// The recovered-state table settles a leg of an ended epoch without a
// message. One session's dependency on beta's first epoch was flushed before
// beta crashed; once beta's recovery announce has arrived and beta's new
// epoch has a watermark of its own, that session's next reply sends beta
// nothing.
TEST_F(FlushCoalesceTest, RecoveredTableSettlesEndedEpochLeg) {
  BuildAndStart(/*coalesce=*/true);
  gate_.store(1);
  ClientEndpoint old_ep(&env_, &net_, "cli_old");
  ClientEndpoint new_ep(&env_, &net_, "cli_new");
  auto old_s = old_ep.StartSession("alpha");
  auto new_s = new_ep.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(old_ep.Call(&old_s, "relay_gated", "", &reply).ok());
  const uint32_t ended = beta_->epoch();
  beta_->Crash();
  ASSERT_TRUE(beta_->Start().ok());
  auto announced = [&] {
    return alpha_->SnapshotRecoveredTable().RecoveredSn("beta", ended);
  };
  for (int i = 0; i < 5000 && !announced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(announced());
  // A flush leg to beta's new epoch: its confirmation is that epoch's
  // watermark.
  const uint64_t before_new = Ctr("flush.requests_sent");
  ASSERT_TRUE(new_ep.Call(&new_s, "relay_gated", "", &reply).ok());
  ASSERT_GT(Ctr("flush.requests_sent"), before_new);

  const uint64_t sent0 = Ctr("flush.requests_sent");
  ASSERT_TRUE(old_ep.Call(&old_s, "local", "", &reply).ok());
  EXPECT_EQ(reply, "ok");
  EXPECT_EQ(Ctr("flush.requests_sent"), sent0);
}

// A coalesced flight that fails authoritatively must orphan EVERY waiter
// that joined it — bit-for-bit with the per-leg protocol: each of the parked
// sessions loses its unflushed dependency when beta crashes, and each must
// recover exactly-once (replayed reply still "1", never "2").
TEST_F(FlushCoalesceTest, FailedFlightOrphansAllJoinedWaiters) {
  BuildAndStart(/*coalesce=*/true);
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  std::vector<Bytes> replies(kClients);
  std::vector<Status> statuses(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    eps.push_back(std::make_unique<ClientEndpoint>(
        &env_, &net_, "cli" + std::to_string(c)));
    sessions.push_back(eps.back()->StartSession("alpha"));
  }
  uint64_t orphans0 = env_.stats().orphans_detected.load();
  arrivals_.store(0);
  gate_.store(0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      statuses[c] = eps[c]->Call(&sessions[c], "relay_gated", "",
                                 &replies[c]);
    });
  }
  while (arrivals_.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // All sessions hold an unflushed (volatile, optimistic) dependency on
  // beta. Crash + restart: beta recovers below the legs' target, so the one
  // coalesced flight gets an authoritative failure covering every waiter.
  beta_->Crash();
  ASSERT_TRUE(beta_->Start().ok());
  gate_.store(1);
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    // Exactly-once: the replayed bcounter re-executes against recovered
    // (empty) session state at beta.
    EXPECT_EQ(replies[c], "1") << "session " << c;
  }
  EXPECT_GE(env_.stats().orphans_detected.load() - orphans0,
            uint64_t(kClients));
  // Nothing left behind in the aggregator.
  EXPECT_EQ(alpha_->PendingFlushLegsForTest(), 0u);
  EXPECT_EQ(alpha_->InFlightFlushesForTest(), 0u);
}

// Crashing the sender mid-flight must fail every waiter and leave no
// aggregator state behind; after both sides restart the system serves the
// same sessions again.
TEST_F(FlushCoalesceTest, CrashMidFlightLeavesNoPendingLegs) {
  BuildAndStart(/*coalesce=*/true);
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<ClientEndpoint>> eps;
  std::vector<ClientSession> sessions;
  std::vector<Bytes> replies(kClients);
  std::vector<Status> statuses(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    eps.push_back(std::make_unique<ClientEndpoint>(
        &env_, &net_, "cli" + std::to_string(c)));
    sessions.push_back(eps.back()->StartSession("alpha"));
  }
  arrivals_.store(0);
  gate_.store(0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      statuses[c] = eps[c]->Call(&sessions[c], "relay_gated", "",
                                 &replies[c]);
    });
  }
  while (arrivals_.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Kill the peer silently (no restart yet): the flush flight launched at
  // gate-open gets no reply. Crash alpha while legs are pending/in flight —
  // FailAll must settle and clear everything.
  beta_->Crash();
  gate_.store(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  alpha_->Crash();
  EXPECT_EQ(alpha_->PendingFlushLegsForTest(), 0u);
  EXPECT_EQ(alpha_->InFlightFlushesForTest(), 0u);
  // Restart both; the clients' resends replay their sessions to completion
  // exactly-once.
  ASSERT_TRUE(beta_->Start().ok());
  ASSERT_TRUE(alpha_->Start().ok());
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    EXPECT_EQ(replies[c], "1") << "session " << c;
  }
  EXPECT_EQ(alpha_->PendingFlushLegsForTest(), 0u);
  EXPECT_EQ(alpha_->InFlightFlushesForTest(), 0u);
}

}  // namespace
}  // namespace msplog
