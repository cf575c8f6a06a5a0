// Ablations of two §1.3 contributions that have no dedicated figure in the
// paper but are claimed as design wins:
//
//  1. PARALLEL RECOVERY (§4.3): "we enable parallel recovery of session
//     states ... this results in faster recovery than replaying all
//     activities sequentially in log order." We crash an MSP hosting many
//     sessions and measure wall (model) time until every session finished
//     replaying, with the pool replaying in parallel vs one at a time.
//
//  2. PER-SESSION DVs (§3.2): "If only one DV is maintained to capture
//     dependencies for an MSP as a whole, all its sessions will roll back,
//     possibly unnecessarily." We crash a peer that only ONE session
//     depends on and count how many requests get replayed under each DV
//     granularity, and how large the attached DVs get.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "msp/msp.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

// ---------------------------------------------------------------------------
// Part 1: parallel vs sequential session recovery
// ---------------------------------------------------------------------------

double MeasureRecoveryMs(bool sequential, int sessions, int requests_each) {
  SimEnvironment env(0.05);
  SimNetwork net(&env);
  SimDisk disk(&env, "d");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  MspConfig c;
  c.id = "alpha";
  c.sequential_recovery = sequential;
  c.thread_pool_size = 8;
  c.checkpoint_daemon = false;
  c.session_checkpoint_threshold_bytes = 0;
  Msp msp(&env, &net, &disk, &dir, c);
  msp.RegisterMethod("work", [](ServiceContext* ctx, const Bytes&, Bytes* r) {
    ctx->Compute(3.0);  // 3 model ms of business logic per request
    Bytes cur = ctx->GetSessionVar("n");
    int n = cur.empty() ? 0 : std::stoi(cur);
    ctx->SetSessionVar("n", std::to_string(n + 1));
    *r = std::to_string(n + 1);
    return Status::OK();
  });
  if (!msp.Start().ok()) return -1;

  std::vector<std::thread> threads;
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      ClientEndpoint client(&env, &net, "cli" + std::to_string(i));
      auto s = client.StartSession("alpha");
      Bytes reply;
      for (int r = 0; r < requests_each; ++r) {
        client.Call(&s, "work", "", &reply);
      }
    });
  }
  for (auto& t : threads) t.join();

  msp.Crash();
  double t0 = env.NowModelMs();
  if (!msp.Start().ok()) return -1;
  // Wait until every session's replay task completed.
  while (env.stats().sessions_recovered.load() <
         static_cast<uint64_t>(sessions)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double elapsed = env.NowModelMs() - t0;
  msp.Shutdown();
  return elapsed;
}

// ---------------------------------------------------------------------------
// Part 2: per-session vs MSP-wide dependency vectors
// ---------------------------------------------------------------------------

struct DvResult {
  uint64_t replayed = 0;
  uint64_t dv_entries = 0;
  uint64_t messages = 0;
};

DvResult MeasureDvGranularity(bool per_session, int independent_sessions,
                              int requests_each) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  SimDisk da(&env, "da"), db(&env, "db");
  DomainDirectory dir;
  dir.Assign("alpha", "dom");
  dir.Assign("beta", "dom");
  MspConfig ca, cb;
  ca.id = "alpha";
  cb.id = "beta";
  ca.per_session_dv = per_session;
  ca.flush_timeout_ms = cb.flush_timeout_ms = 20;
  ca.checkpoint_daemon = cb.checkpoint_daemon = false;
  Msp alpha(&env, &net, &da, &dir, ca);
  Msp beta(&env, &net, &db, &dir, cb);
  beta.RegisterMethod("echo", [](ServiceContext*, const Bytes& a, Bytes* r) {
    *r = a;
    return Status::OK();
  });
  std::atomic<bool> gate{false}, held{false};
  alpha.RegisterMethod("relay_gated", [&](ServiceContext* ctx, const Bytes& a,
                                          Bytes* r) {
    MSPLOG_RETURN_IF_ERROR(ctx->Call("beta", "echo", a, r));
    if (!ctx->in_replay()) {
      held.store(true);
      while (gate.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  });
  alpha.RegisterMethod("local", [](ServiceContext* ctx, const Bytes&,
                                   Bytes* r) {
    Bytes cur = ctx->GetSessionVar("n");
    int n = cur.empty() ? 0 : std::stoi(cur);
    ctx->SetSessionVar("n", std::to_string(n + 1));
    *r = std::to_string(n + 1);
    return Status::OK();
  });
  if (!beta.Start().ok() || !alpha.Start().ok()) return {};

  // Independent sessions build up local-only history.
  for (int i = 0; i < independent_sessions; ++i) {
    ClientEndpoint client(&env, &net, "ind" + std::to_string(i));
    auto s = client.StartSession("alpha");
    Bytes reply;
    for (int r = 0; r < requests_each; ++r) {
      client.Call(&s, "local", "", &reply);
    }
  }

  // One dependent session parks holding an unflushed beta dependency.
  gate.store(true);
  held.store(false);
  ClientEndpoint dep(&env, &net, "dep");
  std::thread t([&] {
    auto s = dep.StartSession("alpha");
    Bytes r;
    (void)dep.Call(&s, "relay_gated", "x", &r);
  });
  while (!held.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto before = env.stats().Snap();
  beta.Crash();
  (void)beta.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  gate.store(false);
  t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  auto after = env.stats().Snap();

  DvResult out;
  out.replayed = after.requests_replayed - before.requests_replayed;
  out.dv_entries = after.dv_entries_attached;
  out.messages = after.messages_sent;
  alpha.Shutdown();
  beta.Shutdown();
  return out;
}

/// Runs both ablations; true when every measurement succeeded and both
/// shape checks pass.
bool Run() {
  bench::Header("bench_ablation_recovery",
                "ablations: parallel session recovery (§4.3) and "
                "per-session DVs (§3.2)");

  printf("\n[1] parallel vs sequential session replay "
         "(8 sessions x 30 requests, 3 model ms CPU each):\n");
  double par = MeasureRecoveryMs(false, 8, 30);
  double seq = MeasureRecoveryMs(true, 8, 30);
  bench::Table t1({"mode", "recovery time (model ms)"});
  t1.AddRow({"parallel (pool of 8)", bench::Fmt(par, 1)});
  t1.AddRow({"sequential", bench::Fmt(seq, 1)});
  t1.Print();
  printf("  speedup: %.1fx\n", seq / par);
  printf("  (re-execution CPU overlaps across sessions, and every replay\n"
         "   parses its records from the bytes the analysis scan read; the\n"
         "   scan and post-scan checkpoint before the drain, plus one\n"
         "   session's own replay, bound the speedup below the session\n"
         "   count)\n");
  const bool parallel_ok = par > 0 && seq > 1.5 * par;
  printf("  [%s] parallel recovery is at least 1.5x faster\n",
         parallel_ok ? "PASS" : "FAIL");

  printf("\n[2] DV granularity: peer crash that only 1 of 9 sessions "
         "depends on:\n");
  DvResult ps = MeasureDvGranularity(true, 8, 10);
  DvResult mw = MeasureDvGranularity(false, 8, 10);
  bench::Table t2({"mode", "requests replayed", "DV entries attached"});
  t2.AddRow({"per-session DVs", std::to_string(ps.replayed),
             std::to_string(ps.dv_entries)});
  t2.AddRow({"MSP-wide DV", std::to_string(mw.replayed),
             std::to_string(mw.dv_entries)});
  t2.Print();
  const bool dv_ok = ps.replayed < mw.replayed;
  printf("  [%s] per-session DVs avoid unnecessary rollback "
         "(%llu vs %llu replayed)\n",
         dv_ok ? "PASS" : "FAIL",
         (unsigned long long)ps.replayed, (unsigned long long)mw.replayed);
  return parallel_ok && dv_ok;
}

}  // namespace
}  // namespace msplog

int main() { return msplog::Run() ? 0 : 1; }
