// Instrumentation-integrity tests: the benchmarks interpret SimStats
// counters, the obs histograms and the event tracer, so all three must track
// the underlying operations exactly on controlled workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "json_strict.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "obs/blame.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : env_(0.0), net_(&env_), disk_a_(&env_, "da"),
                disk_b_(&env_, "db") {}

  void TearDown() override {
    if (alpha_) alpha_->Shutdown();
    if (beta_) beta_->Shutdown();
  }

  void Build(bool same_domain) {
    directory_.Assign("alpha", "domA");
    directory_.Assign("beta", same_domain ? "domA" : "domB");
    MspConfig ca, cb;
    ca.id = "alpha";
    cb.id = "beta";
    ca.checkpoint_daemon = cb.checkpoint_daemon = false;
    ca.session_checkpoint_threshold_bytes = 0;
    cb.session_checkpoint_threshold_bytes = 0;
    ca.shared_var_checkpoint_threshold_writes = 0;
    cb.shared_var_checkpoint_threshold_writes = 0;
    alpha_ = std::make_unique<Msp>(&env_, &net_, &disk_a_, &directory_, ca);
    beta_ = std::make_unique<Msp>(&env_, &net_, &disk_b_, &directory_, cb);
    beta_->RegisterMethod("echo", [](ServiceContext*, const Bytes& a,
                                     Bytes* r) {
      *r = a;
      return Status::OK();
    });
    alpha_->RegisterSharedVariable("sv", "0");
    alpha_->RegisterMethod("workload", [](ServiceContext* ctx, const Bytes& a,
                                          Bytes* r) {
      Bytes v;
      MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("sv", &v));
      MSPLOG_RETURN_IF_ERROR(ctx->WriteShared("sv", v + "x"));
      return ctx->Call("beta", "echo", a, r);
    });
    ASSERT_TRUE(beta_->Start().ok());
    ASSERT_TRUE(alpha_->Start().ok());
  }

  /// `id`'s kDequeue events: one per request its workers took, client
  /// resends included — the server's own truth.
  uint64_t Dequeued(const std::string& id) const {
    uint64_t n = 0;
    for (const obs::TraceEvent& e : env_.tracer().Events()) {
      if (e.type == obs::TraceEventType::kDequeue && e.actor == id) ++n;
    }
    return n;
  }

  /// One client call to alpha, which calls beta once, then three direct
  /// client calls to beta. Returns once each server's request count has
  /// caught up with its dequeues: a worker counts its request after the
  /// reply has left.
  void CallAlphaOnceAndBetaThrice() {
    ClientEndpoint client(&env_, &net_, "cli");
    auto to_alpha = client.StartSession("alpha");
    auto to_beta = client.StartSession("beta");
    Bytes reply;
    ASSERT_TRUE(client.Call(&to_alpha, "workload", "a", &reply).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.Call(&to_beta, "echo", "b", &reply).ok());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((UintAt(alpha_->DumpStatusz(), {"requests"}) != Dequeued("alpha") ||
            UintAt(beta_->DumpStatusz(), {"requests"}) != Dequeued("beta")) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  SimEnvironment env_;
  SimNetwork net_;
  SimDisk disk_a_, disk_b_;
  DomainDirectory directory_;
  std::unique_ptr<Msp> alpha_, beta_;
};

TEST_F(StatsTest, LogRecordCountsPerRequestIntraDomain) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  auto before = env_.stats().Snap();
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  auto after = env_.stats().Snap();
  // Per request: alpha logs RequestReceive + SharedRead + SharedWrite +
  // ReplyReceive = 4; beta logs RequestReceive = 1. Five records total.
  EXPECT_EQ(after.log_records_appended - before.log_records_appended,
            5u * kN);
  // One distributed flush per request (before reply1 to the end client).
  EXPECT_EQ(after.distributed_flushes - before.distributed_flushes,
            1u * kN);
  // Messages: request1, request2, flush-request, flush-reply, reply2,
  // reply1 = 6 per request.
  EXPECT_EQ(after.messages_sent - before.messages_sent, 6u * kN);
}

TEST_F(StatsTest, CrossDomainUsesNoDvAndMoreFlushes) {
  Build(/*same_domain=*/false);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  auto before = env_.stats().Snap();
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.dv_entries_attached, before.dv_entries_attached);
  // Three distributed flushes per request (each degenerates to one local
  // leg): before request2, before reply2, before reply1.
  EXPECT_EQ(after.distributed_flushes - before.distributed_flushes,
            3u * kN);
  // Messages: request1, request2, reply2, reply1 — no flush round trips.
  EXPECT_EQ(after.messages_sent - before.messages_sent, 4u * kN);
  EXPECT_EQ(after.disk_flushes - before.disk_flushes, 3u * kN);
}

TEST_F(StatsTest, ReplayCounterMatchesRecoveredRequests) {
  Build(true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  constexpr int kN = 7;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  auto before = env_.stats().Snap();
  alpha_->Crash();
  ASSERT_TRUE(alpha_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  auto after = env_.stats().Snap();
  EXPECT_EQ(after.requests_replayed - before.requests_replayed,
            static_cast<uint64_t>(kN));
  EXPECT_EQ(after.sessions_recovered - before.sessions_recovered, 1u);
}

TEST_F(StatsTest, WastedBytesBoundedByHalfSectorPerFlushOnAverage) {
  Build(true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  auto before = env_.stats().Snap();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload",
                            MakePayload(50 + i * 13, i), &reply)
                    .ok());
  }
  auto after = env_.stats().Snap();
  uint64_t flushes = after.disk_flushes - before.disk_flushes;
  uint64_t wasted = after.disk_bytes_wasted - before.disk_bytes_wasted;
  ASSERT_GT(flushes, 0u);
  EXPECT_LT(wasted, flushes * 512);  // strictly less than a sector each
}

// ---------------------------------------------------------------------------
// obs::Histogram correctness.

TEST(HistogramTest, BucketBoundariesExact) {
  using H = obs::Histogram;
  // Below 32 µs: one bucket per microsecond, exact boundaries.
  for (size_t u = 0; u < H::kSubBuckets; ++u) {
    EXPECT_EQ(H::BucketIndex(static_cast<double>(u) * 1e-3), u);
    EXPECT_DOUBLE_EQ(H::BucketLowerMs(u), static_cast<double>(u) * 1e-3);
    EXPECT_DOUBLE_EQ(H::BucketUpperMs(u), static_cast<double>(u + 1) * 1e-3);
  }
  // First bucket of the log range: [32 µs, 33 µs).
  EXPECT_EQ(H::BucketIndex(0.032), H::kSubBuckets);
  EXPECT_DOUBLE_EQ(H::BucketLowerMs(H::kSubBuckets), 0.032);
  EXPECT_DOUBLE_EQ(H::BucketUpperMs(H::kSubBuckets), 0.033);
  // Every bucket's lower bound maps back to that bucket, and buckets tile the
  // axis with no gaps or overlaps.
  for (size_t i = 0; i < H::kNumBuckets; ++i) {
    EXPECT_EQ(H::BucketIndex(H::BucketLowerMs(i)), i) << "bucket " << i;
    if (i + 1 < H::kNumBuckets) {
      EXPECT_DOUBLE_EQ(H::BucketUpperMs(i), H::BucketLowerMs(i + 1))
          << "bucket " << i;
    }
  }
  // Log-range buckets are at most 1/32 ≈ 3% of their lower bound wide — the
  // advertised relative quantile error.
  for (size_t i = H::kSubBuckets; i < H::kNumBuckets; ++i) {
    double lo = H::BucketLowerMs(i), hi = H::BucketUpperMs(i);
    EXPECT_LE((hi - lo) / lo, 1.0 / 32 + 1e-12) << "bucket " << i;
  }
  // Degenerate inputs clamp to bucket 0 / the top bucket.
  EXPECT_EQ(H::BucketIndex(-1.0), 0u);
  EXPECT_EQ(H::BucketIndex(0.0), 0u);
  EXPECT_EQ(H::BucketIndex(1e18), H::kNumBuckets - 1);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucketAndClampsToObserved) {
  obs::Histogram h;
  // One sample at 1 µs, one at 10 µs: q=0 and q=1 hit the bucket lower
  // bounds exactly; q=0.5 interpolates halfway into the 1 µs bucket.
  h.Record(0.001);
  h.Record(0.010);
  auto s = h.Snap();
  ASSERT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 0.010);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0015);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.010);

  // All samples equal: interpolation would overshoot past the sample inside
  // the bucket, but the estimate is clamped to the observed [min, max].
  obs::Histogram h2;
  for (int i = 0; i < 3; ++i) h2.Record(0.005);
  auto s2 = h2.Snap();
  EXPECT_DOUBLE_EQ(s2.Quantile(0.5), 0.005);
  EXPECT_DOUBLE_EQ(s2.P99(), 0.005);

  // Wide spread: quantiles stay within the ≤3% bucket-width error bound.
  obs::Histogram h3;
  for (int v = 1; v <= 100; ++v) h3.Record(static_cast<double>(v));
  auto s3 = h3.Snap();
  EXPECT_NEAR(s3.P50(), 50.5, 3.0);
  EXPECT_NEAR(s3.P90(), 90.1, 4.0);
  EXPECT_NEAR(s3.P99(), 99.0, 4.0);
  EXPECT_LE(s3.P50(), s3.P90());
  EXPECT_LE(s3.P90(), s3.P99());
  EXPECT_LE(s3.P99(), s3.max);
  EXPECT_DOUBLE_EQ(s3.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(s3.min, 1.0);
  EXPECT_DOUBLE_EQ(s3.max, 100.0);
}

TEST(HistogramTest, ConcurrentRecordingIsDeterministic) {
  // N threads hammer one histogram with a fixed value multiset. The values
  // are exact binary fractions, so sum must come out exact regardless of the
  // interleaving, and the snapshot must equal a serially built reference.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  static const double kValues[] = {0.25, 0.5, 1.0, 2.0, 4.0, 0.25, 8.0, 0.5};
  constexpr int kNumValues = 8;

  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("test.concurrent");
  // Interned handles are stable: same name, same pointer, from any thread.
  ASSERT_EQ(h, reg.GetHistogram("test.concurrent"));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      obs::Histogram* hh = reg.GetHistogram("test.concurrent");
      for (int i = 0; i < kPerThread; ++i) hh->Record(kValues[i % kNumValues]);
    });
  }
  for (auto& t : threads) t.join();

  obs::Histogram ref;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) ref.Record(kValues[i % kNumValues]);
  }

  auto got = h->Snap();
  auto want = ref.Snap();
  EXPECT_EQ(got.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.min, 0.25);
  EXPECT_DOUBLE_EQ(got.max, 8.0);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_DOUBLE_EQ(got.P50(), want.P50());
  EXPECT_DOUBLE_EQ(got.P90(), want.P90());
  EXPECT_DOUBLE_EQ(got.P99(), want.P99());
}

TEST(HistogramTest, SnapshotMergeAndDelta) {
  obs::Histogram a, b;
  for (int i = 0; i < 10; ++i) a.Record(1.0);
  for (int i = 0; i < 10; ++i) b.Record(4.0);
  auto sa = a.Snap();
  auto before = sa;
  sa.Merge(b.Snap());
  EXPECT_EQ(sa.count, 20u);
  EXPECT_DOUBLE_EQ(sa.min, 1.0);
  EXPECT_DOUBLE_EQ(sa.max, 4.0);
  EXPECT_DOUBLE_EQ(sa.sum, 50.0);

  for (int i = 0; i < 5; ++i) a.Record(2.0);
  auto delta = a.Snap().Delta(before);
  EXPECT_EQ(delta.count, 5u);
  EXPECT_DOUBLE_EQ(delta.sum, 10.0);
  EXPECT_NEAR(delta.P50(), 2.0, 2.0 / 32);  // within one log bucket
}

// One entry per (name, owner); Snap() adds up each name's counters and
// merges its histograms over the owners.
TEST(MetricsRegistryTest, SnapSumsEachNameOverItsOwners) {
  obs::MetricsRegistry reg;
  obs::Counter* ca = reg.GetCounter("test.count", "a");
  obs::Counter* cb = reg.GetCounter("test.count", "b");
  EXPECT_NE(ca, cb);
  EXPECT_EQ(ca, reg.GetCounter("test.count", "a"));
  EXPECT_EQ(cb, reg.GetCounter("test.count", "b"));
  ca->Add(3);
  cb->Add(4);

  obs::Histogram* ha = reg.GetHistogram("test.hist", "a");
  obs::Histogram* hb = reg.GetHistogram("test.hist", "b");
  EXPECT_NE(ha, hb);
  EXPECT_EQ(ha, reg.GetHistogram("test.hist", "a"));
  EXPECT_EQ(hb, reg.GetHistogram("test.hist", "b"));
  obs::Histogram all;
  for (int v = 1; v <= 100; ++v) {
    (v <= 50 ? ha : hb)->Record(v);
    all.Record(v);
  }

  const obs::MetricsRegistry::RegistrySnapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("test.count"), 7u);
  const obs::Histogram::Snapshot& h = snap.histograms.at("test.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.P50(), all.Snap().P50());
  // No owner is the registry's own entry, not a total.
  EXPECT_EQ(reg.GetCounter("test.count")->Value(), 0u);
}

// ---------------------------------------------------------------------------
// EventTracer: the request lifecycle leaves an exact, ordered event chain.

using obs::TraceEventType;

std::vector<obs::TraceEvent> EventsForActors(const obs::EventTracer& tracer,
                                             const std::string& a,
                                             const std::string& b) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : tracer.Events()) {
    if (e.actor == a || e.actor == b) out.push_back(e);
  }
  return out;  // Events() is already seq-ordered
}

TEST_F(StatsTest, TracerRecordsExactLifecycleForOneRequest) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  // Warm up: session creation and recovery-time events are not part of the
  // steady-state per-request chain.
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  // The client can get the reply before the worker records kReplySent; wait
  // for the warm-up chain to drain so Clear() cannot race with its tail.
  {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      auto ev = EventsForActors(env_.tracer(), "alpha", "alpha.log");
      if (!ev.empty() && ev.back().type == TraceEventType::kReplySent) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  env_.tracer().Clear();
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());

  // kReplySent is recorded just after the reply is handed to the network, so
  // the client can return before the worker reaches the Record call.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<obs::TraceEvent> got;
  while (std::chrono::steady_clock::now() < deadline) {
    got = EventsForActors(env_.tracer(), "alpha", "alpha.log");
    if (!got.empty() && got.back().type == TraceEventType::kReplySent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The full chain on alpha for one intra-domain request with an end-client
  // reply: enqueue → dequeue → execute → distributed flush (one flight
  // launched toward beta, one local log write) → reply. Nothing else may
  // interleave on this actor.
  const std::vector<TraceEventType> want = {
      TraceEventType::kEnqueue,           TraceEventType::kDequeue,
      TraceEventType::kExecStart,         TraceEventType::kExecEnd,
      TraceEventType::kDistFlushStart,    TraceEventType::kFlushFlightLaunch,
      TraceEventType::kLocalFlushStart,   TraceEventType::kLocalFlushEnd,
      TraceEventType::kDistFlushEnd,      TraceEventType::kReplySent,
  };
  ASSERT_EQ(got.size(), want.size()) << env_.tracer().DumpJson();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i])
        << "event " << i << " is " << obs::TraceEventTypeName(got[i].type);
  }
  // Model time is non-decreasing along the chain and seq is strictly
  // increasing (Events() is in seq order).
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i].model_ms, got[i - 1].model_ms) << "event " << i;
    EXPECT_GT(got[i].seq, got[i - 1].seq) << "event " << i;
  }
  // Request-scoped events carry the session id and the request seqno.
  for (size_t i : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    EXPECT_EQ(got[i].session, session.session_id);
    EXPECT_EQ(got[i].seqno, session.next_seqno - 1);
  }
  // The log-flush pair is attributed to alpha's log file.
  EXPECT_EQ(got[6].actor, "alpha.log");
  EXPECT_EQ(got[7].actor, "alpha.log");
  EXPECT_EQ(env_.tracer().dropped(), 0u);

  // Causal-tracing span contract: every request-scoped event on alpha shares
  // the request span S1 (allocated at enqueue, parent = the client's root
  // span), and the distributed-flush pair is a child span of S1.
  const obs::SpanContext s1 = got[0].span;
  EXPECT_TRUE(s1.valid());
  EXPECT_NE(s1.span_id, 0u);
  EXPECT_NE(s1.parent_span_id, 0u);  // parented under the client root
  for (size_t i : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    EXPECT_EQ(got[i].span.trace_id, s1.trace_id) << "event " << i;
    EXPECT_EQ(got[i].span.span_id, s1.span_id) << "event " << i;
  }
  EXPECT_EQ(got[4].span.trace_id, s1.trace_id);
  EXPECT_EQ(got[4].span.parent_span_id, s1.span_id);
  EXPECT_NE(got[4].span.span_id, s1.span_id);
  EXPECT_EQ(got[8].span.span_id, got[4].span.span_id);
  // The flight toward beta is its own span, a child of the dist-flush span.
  EXPECT_EQ(got[5].span.trace_id, s1.trace_id);
  EXPECT_EQ(got[5].span.parent_span_id, got[4].span.span_id);
  // The client endpoint recorded the root span bracketing the whole call.
  auto all_events = env_.tracer().Events();
  const obs::TraceEvent* root_ev = nullptr;
  for (const auto& e : all_events) {
    if (e.type == TraceEventType::kClientCallStart && e.actor == "cli" &&
        e.span.trace_id == s1.trace_id) {
      root_ev = &e;
    }
  }
  ASSERT_NE(root_ev, nullptr);
  EXPECT_EQ(root_ev->span.span_id, s1.parent_span_id);
  EXPECT_EQ(root_ev->span.span_id, root_ev->span.trace_id);  // root: id==trace

  // Both dump formats carry the chain.
  std::string json = env_.tracer().DumpJson();
  EXPECT_NE(json.find("\"type\":\"Enqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"ReplySent\""), std::string::npos);
  std::string chrome = env_.tracer().DumpChromeTracing();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"exec\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"dist_flush\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// RecoveryTimeline: one crash-recovery cycle fills every phase.

TEST_F(StatsTest, RecoveryTimelineAccountsCrashRecoveryPhases) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  constexpr int kN = 4;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  alpha_->Crash();
  env_.tracer().Clear();
  ASSERT_TRUE(alpha_->Start().ok());

  // Session replay runs on background workers after Start() returns.
  obs::RecoveryTimeline tl;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    tl = alpha_->LastRecoveryTimeline();
    if (!tl.session_replays.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(tl.epoch, alpha_->epoch());
  EXPECT_GT(tl.analysis_scan_ms, 0.0);
  EXPECT_GT(tl.analysis_records_scanned, 0u);
  EXPECT_GT(tl.analysis_bytes_scanned, 0u);
  EXPECT_GT(tl.post_scan_checkpoint_ms, 0.0);
  EXPECT_EQ(tl.sessions_to_recover, 1u);
  ASSERT_EQ(tl.session_replays.size(), 1u);
  const auto& r = tl.session_replays[0];
  EXPECT_EQ(r.session_id, session.session_id);
  EXPECT_GT(r.replay_ms, 0.0);
  EXPECT_EQ(r.requests_replayed, static_cast<uint64_t>(kN));
  EXPECT_GE(r.rounds, 1u);
  EXPECT_TRUE(r.from_crash);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(tl.max_parallel_replays, 1u);
  EXPECT_DOUBLE_EQ(tl.TotalReplayMs(), r.replay_ms);
  // The timeline is the sole source of the scan duration (the old
  // last_recovery_scan_ms shim is gone) and it stamps the instant-restart
  // open point, which can only precede or equal this session's replay end.
  EXPECT_GT(tl.analysis_scan_ms, 0.0);
  EXPECT_GT(tl.open_for_traffic_ms, 0.0);
  // ToJson carries the phases for the bench reports.
  std::string json = tl.ToJson();
  EXPECT_NE(json.find("\"analysis_scan_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"open_for_traffic_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"session_replays\""), std::string::npos);

  // The tracer saw the same cycle: recovery start → analysis scan end →
  // recovery end, then the session's replay start/end pair.
  auto events = env_.tracer().Events();
  auto find = [&](TraceEventType t) -> const obs::TraceEvent* {
    for (const auto& e : events) {
      if (e.type == t && (e.actor == "alpha")) return &e;
    }
    return nullptr;
  };
  const auto* rec_start = find(TraceEventType::kRecoveryStart);
  const auto* scan_end = find(TraceEventType::kAnalysisScanEnd);
  const auto* rec_end = find(TraceEventType::kRecoveryEnd);
  const auto* replay_start = find(TraceEventType::kReplayStart);
  const auto* replay_end = find(TraceEventType::kReplayEnd);
  ASSERT_NE(rec_start, nullptr);
  ASSERT_NE(scan_end, nullptr);
  ASSERT_NE(rec_end, nullptr);
  ASSERT_NE(replay_start, nullptr);
  ASSERT_NE(replay_end, nullptr);
  EXPECT_LT(rec_start->seq, scan_end->seq);
  EXPECT_LT(scan_end->seq, rec_end->seq);
  EXPECT_LT(scan_end->seq, replay_start->seq);
  EXPECT_LT(replay_start->seq, replay_end->seq);
  EXPECT_EQ(replay_start->session, session.session_id);
  EXPECT_EQ(replay_start->detail, "crash");

  // After replay completes the session serves requests again.
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
}

// ---------------------------------------------------------------------------
// Tracer ring overflow is counted, not silent.

TEST(TracerDropTest, OverflowCountsDropsAndKeepsTheNewestEvents) {
  obs::EventTracer tracer(/*capacity=*/8, /*stripes=*/1);
  for (int i = 0; i < 20; ++i) {
    tracer.Record(obs::TraceEventType::kEnqueue, i, "actor");
  }
  EXPECT_EQ(tracer.dropped(), 12u);
  // The ring keeps the newest events.
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_DOUBLE_EQ(events.front().model_ms, 12.0);
  EXPECT_DOUBLE_EQ(events.back().model_ms, 19.0);
  // Clear resets retention but not the lifetime drop count.
  tracer.Clear();
  EXPECT_TRUE(tracer.Events().empty());
}

// ---------------------------------------------------------------------------
// The tracer's one reader copies only each stripe's newest events, which is
// exact because Record stamps seq under the stripe lock. Eight threads wrap
// every stripe of a small ring many times over.

/// Starts eight threads that each record `per_thread` events.
std::vector<std::thread> StartRecorders(obs::EventTracer* tracer,
                                        int per_thread) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([tracer, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        tracer->Record(obs::TraceEventType::kEnqueue, i,
                       "t" + std::to_string(t));
      }
    });
  }
  return threads;
}

TEST(TracerReadTest, WrappedStripesReadExactlyTheNewestEvents) {
  // About 250 laps of an 8-event stripe, and odd, so that no stripe's
  // overwrite cursor ends back at slot 0.
  constexpr int kPerThread = 2003;
  obs::EventTracer tracer(/*capacity=*/64, /*stripes=*/8);
  for (std::thread& t : StartRecorders(&tracer, kPerThread)) t.join();

  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_FALSE(events.empty());
  ASSERT_LE(events.size(), 64u);
  EXPECT_EQ(tracer.dropped(), 8u * kPerThread - events.size());
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_GT(events[i].seq, events[i - 1].seq) << "event " << i;
  }
  // The newest event of all is its stripe's newest, so it is retained.
  EXPECT_EQ(events.back().seq, 8u * kPerThread - 1);

  for (size_t k : {1, 8, 63, 64, 65}) {
    std::vector<uint64_t> want;
    for (size_t i = events.size() - std::min(k, events.size());
         i < events.size(); ++i) {
      want.push_back(events[i].seq);
    }
    EXPECT_EQ(DumpedSeqs(tracer.DumpJson(k)), want) << "k = " << k;
  }
}

TEST(TracerReadTest, TailReadsDuringRecordingStayInSeqOrder) {
  obs::EventTracer tracer(/*capacity=*/64, /*stripes=*/8);
  std::atomic<bool> recording{true};
  int dumps = 0;
  int disordered = 0;
  std::thread reader([&] {
    while (recording.load()) {
      const std::vector<uint64_t> seqs = DumpedSeqs(tracer.DumpJson(16));
      if (seqs.size() > 16 ||
          std::adjacent_find(seqs.begin(), seqs.end(),
                             std::greater_equal<uint64_t>()) != seqs.end()) {
        ++disordered;
      }
      ++dumps;
    }
  });
  for (std::thread& t : StartRecorders(&tracer, 20000)) t.join();
  recording.store(false);
  reader.join();
  EXPECT_GT(dumps, 0);
  EXPECT_EQ(disordered, 0) << "of " << dumps << " dumps";
}

// ---------------------------------------------------------------------------
// Recovery provenance + statusz.

TEST_F(StatsTest, RecoveryProvenanceNamesTheRecordsThatRebuiltTheSession) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  alpha_->Crash();
  ASSERT_TRUE(alpha_->Start().ok());
  // Wait for the background replay to converge.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  obs::RecoveryTimeline tl;
  while (std::chrono::steady_clock::now() < deadline) {
    tl = alpha_->LastRecoveryTimeline();
    if (!tl.session_replays.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tl.session_replays.size(), 1u);
  const auto& p = tl.session_replays[0];
  EXPECT_EQ(p.session_id, session.session_id);
  EXPECT_TRUE(p.from_crash);
  EXPECT_TRUE(p.converged);
  // Every request before the crash was rebuilt from a logged RequestReceive.
  ASSERT_EQ(p.records.size(), static_cast<size_t>(kN));
  for (size_t i = 1; i < p.records.size(); ++i) {
    EXPECT_GT(p.records[i].lsn, p.records[i - 1].lsn);
    EXPECT_GT(p.records[i].seqno, p.records[i - 1].seqno);
  }
  EXPECT_GE(p.log_records_consumed, p.records.size());
  // No session checkpoint was taken (thresholds off in Build).
  EXPECT_EQ(p.session_checkpoint_lsn, 0u);
  // The record carries the scan bounds next to the replay's provenance.
  EXPECT_GT(tl.scan_end_lsn, tl.scan_start_lsn);
  std::string json = tl.ToJson();
  EXPECT_NE(json.find("\"session_checkpoint_lsn\""), std::string::npos);
  EXPECT_NE(json.find("\"scan_start_lsn\""), std::string::npos);
}

TEST_F(StatsTest, DumpStatuszCarriesLiveStateAndSurvivesCrashCycle) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  std::string s = alpha_->DumpStatusz();
  for (const char* key :
       {"\"id\":\"alpha\"", "\"state\":\"running\"", "\"epoch\"",
        "\"sessions\"", "\"log\"", "\"end_lsn\"", "\"requests\"",
        "\"histograms\"", "\"recoveries\""}) {
    EXPECT_NE(s.find(key), std::string::npos) << key << " missing in " << s;
  }
  alpha_->Crash();
  std::string crashed = alpha_->DumpStatusz();
  EXPECT_NE(crashed.find("\"state\":\"crashed\""), std::string::npos);
  ASSERT_TRUE(alpha_->Start().ok());
  ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  EXPECT_NE(alpha_->DumpStatusz().find("\"state\":\"running\""),
            std::string::npos);
}

// Each statusz counts only the requests its own server served: alpha serves
// one request (and calls beta once), beta three more from the client. The
// request counter counts client resends exactly as the dequeue events do.
TEST_F(StatsTest, StatuszCountsOnlyItsOwnServersRequests) {
  Build(/*same_domain=*/true);
  ASSERT_NO_FATAL_FAILURE(CallAlphaOnceAndBetaThrice());
  EXPECT_GE(Dequeued("alpha"), 1u);
  EXPECT_GE(Dequeued("beta"), 4u);
  EXPECT_EQ(UintAt(alpha_->DumpStatusz(), {"requests"}), Dequeued("alpha"));
  EXPECT_EQ(UintAt(beta_->DumpStatusz(), {"requests"}), Dequeued("beta"));
}

// Each statusz's histograms and flush counters are its own server's, in the
// same world. Only alpha's reply depends on a peer (beta's reply to its
// nested call), so only alpha requests flush legs; a client resend answered
// from alpha's buffered reply requests another, so alpha's count is a floor.
TEST_F(StatsTest, StatuszHistogramsAndFlushCountersArePerServer) {
  Build(/*same_domain=*/true);
  ASSERT_NO_FATAL_FAILURE(CallAlphaOnceAndBetaThrice());
  for (const Msp* msp : {alpha_.get(), beta_.get()}) {
    const std::string id = msp->config().id;
    EXPECT_EQ(UintAt(msp->DumpStatusz(),
                     {"histograms", "queue_wait_ms", "count"}),
              Dequeued(id))
        << id;
  }
  const std::string alpha = alpha_->DumpStatusz();
  const std::string beta = beta_->DumpStatusz();
  EXPECT_GE(UintAt(alpha, {"flush", "legs_requested"}), 1u);
  EXPECT_EQ(UintAt(beta, {"flush", "legs_requested"}), 0u);
  EXPECT_EQ(UintAt(beta, {"flush", "requests_sent"}), 0u);
}

// ---------------------------------------------------------------------------
// Every machine-readable dump parses strictly (tests/json_strict.h), and the
// one JSON writer (obs/json.h) keeps that true for any input.

TEST(JsonStrictTest, RejectsMalformedDocuments) {
  EXPECT_TRUE(JsonStrict("{\"a\":[1,2.5e-3,\"x\\\"y\"],\"b\":{}}"));
  EXPECT_FALSE(JsonStrict("{\"a\":1,}"));
  EXPECT_FALSE(JsonStrict("{\"a\":nan}"));
  EXPECT_FALSE(JsonStrict("{\"a\":inf}"));
  EXPECT_FALSE(JsonStrict("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonStrict("{\"a\":}"));
  EXPECT_FALSE(JsonStrict("[1,2"));
  EXPECT_FALSE(JsonStrict("[\"a\nb\"]"));   // raw control character
  EXPECT_FALSE(JsonStrict("[\"\\x41\"]"));  // unknown escape
  EXPECT_TRUE(JsonStrict("[\"\\u0001\\n\"]"));
}

TEST(JsonWriterTest, CompactInsertionOrderedOutput) {
  obs::JsonArray arr;
  arr.Push(1).Push("x").Push(true).Push(obs::Json());
  std::string got = obs::Json()
                        .Add("s", "v")
                        .Add("u", uint64_t{18446744073709551615u})
                        .Add("i", -3)
                        .Add("d", 0.1)
                        .Add("big", 1e21)
                        .Add("b", false)
                        .Add("arr", arr)
                        .AddRaw("raw", "{\"k\":null}")
                        .Str();
  EXPECT_EQ(got,
            "{\"s\":\"v\",\"u\":18446744073709551615,\"i\":-3,\"d\":0.1,"
            "\"big\":1e+21,\"b\":false,\"arr\":[1,\"x\",true,{}],"
            "\"raw\":{\"k\":null}}");
  EXPECT_TRUE(JsonStrict(got));
  EXPECT_EQ(obs::JsonArray().Str(), "[]");
  EXPECT_EQ(obs::Json().Str(), "{}");

  // The reader gives the values back: integers exactly, members by path.
  const std::optional<obs::JsonValue> v = obs::ParseJson(got);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->At({"u"})->Uint(), uint64_t{18446744073709551615u});
  EXPECT_FALSE(v->At({"i"})->Uint().has_value());  // negative
  EXPECT_FALSE(v->At({"d"})->Uint().has_value());  // not an integer
  EXPECT_EQ(v->At({"arr"})->items[1].text, "x");
  EXPECT_EQ(v->At({"raw", "k"})->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(v->At({"raw", "missing"}), nullptr);
}

TEST(JsonWriterTest, DoublesRoundTripAndNonFiniteBecomesNull) {
  for (double v : {0.0, -0.0, 1.0 / 3.0, 12345.678901234567, 1e-300, 1e300}) {
    std::string out;
    obs::AppendJsonValue(&out, v);
    EXPECT_TRUE(JsonStrict(out)) << out;
    EXPECT_EQ(std::stod(out), v) << out;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::string doc = obs::Json()
                        .Add("nan", nan)
                        .Add("inf", inf)
                        .Add("ninf", -inf)
                        .Add("hist", obs::Histogram().Snap())
                        .Str();
  EXPECT_TRUE(JsonStrict(doc));
  EXPECT_TRUE(doc.starts_with("{\"nan\":null,\"inf\":null,\"ninf\":null,"))
      << doc;
}

TEST(JsonWriterTest, ControlCharactersInStringsAreEscaped) {
  std::string nasty = "q\"b\\n\nr\rt\t";
  for (int c = 0; c < 0x20; ++c) nasty += static_cast<char>(c);
  nasty += "\x7f\xc3\xa9";  // DEL and UTF-8 pass through
  obs::JsonArray arr;
  arr.Push(nasty);
  std::string doc = obs::Json().Add(nasty, nasty).Add("a", arr).Str();
  EXPECT_TRUE(JsonStrict(doc)) << doc;
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\\u001f"), std::string::npos);
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  // The reader decodes every escape back to the same bytes, and \u units
  // past ASCII to UTF-8.
  EXPECT_EQ(obs::ParseJson(doc)->At({nasty})->text, nasty);
  EXPECT_EQ(obs::ParseJson("[\"\\u00e9\\u20ac\"]")->items[0].text,
            "\xc3\xa9\xe2\x82\xac");
}

// The reader bounds nesting at 256 levels, so no document can exhaust the
// stack of the tool that reads it.
TEST(JsonReaderTest, NestingIsBounded) {
  const std::string deep = std::string(256, '[') + "0" + std::string(256, ']');
  EXPECT_TRUE(obs::ParseJson(deep).has_value());
  EXPECT_FALSE(obs::ParseJson("[" + deep + "]").has_value());
}

TEST_F(StatsTest, StatuszTraceAndRecoveryDumpsParseStrictly) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }

  EXPECT_TRUE(JsonStrict(alpha_->DumpStatusz()));
  EXPECT_TRUE(JsonStrict(
      obs::AttributeTailQuantile(env_.tracer().Events(), 0.99).ToJson()));
  EXPECT_TRUE(JsonStrict(env_.tracer().DumpJson()));
  EXPECT_TRUE(JsonStrict(env_.tracer().DumpChromeTracing()));
  // The crashed server's dump parses too.
  alpha_->Crash();
  EXPECT_TRUE(JsonStrict(alpha_->DumpStatusz()));
  const obs::FlightBundle bundle =
      env_.flight_recorder().LatestBundleFor("alpha");
  ASSERT_TRUE(bundle.frozen);
  EXPECT_TRUE(JsonStrict(bundle.ToJson()));
  ASSERT_TRUE(alpha_->Start().ok());
  const obs::RecoveryTimeline tl = alpha_->LastRecoveryTimeline();
  EXPECT_TRUE(JsonStrict(tl.ToJson()));
  EXPECT_TRUE(JsonStrict(tl.Outage().ToJson()));
}

// ---------------------------------------------------------------------------
// Tail-latency blame: attribution buckets partition the slow calls' time.

TEST_F(StatsTest, TailBlameAttributesCompletedClientCalls) {
  Build(/*same_domain=*/true);
  ClientEndpoint client(&env_, &net_, "cli");
  auto session = client.StartSession("alpha");
  Bytes reply;
  constexpr int kN = 8;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.Call(&session, "workload", "a", &reply).ok());
  }
  auto events = env_.tracer().Events();
  // Threshold 0: every complete client call is attributed.
  obs::TailBlameReport all = obs::AttributeTailLatency(events, 0.0);
  EXPECT_GE(all.traces_slow, static_cast<uint64_t>(kN) - 1);
  EXPECT_GT(all.total_ms, 0.0);
  double bucket_sum = all.queue_wait_ms + all.exec_ms + all.local_flush_ms +
                      all.remote_flush_ms + all.net_resend_ms + all.other_ms;
  EXPECT_NEAR(bucket_sum, all.total_ms, all.total_ms * 1e-6);
  // The p99 cut selects a (near-)worst call, so it can only shrink the set.
  obs::TailBlameReport p99 = obs::AttributeTailQuantile(events, 0.99);
  EXPECT_LE(p99.traces_slow, all.traces_slow);
  EXPECT_GE(p99.traces_slow, 1u);
  EXPECT_GE(p99.threshold_ms, 0.0);
}

}  // namespace
}  // namespace msplog
