// Distributed-flush coalescing microbenchmark: K concurrent clients drive a
// server whose replies cross a pessimistic boundary with one peer flush leg
// each (server and peer share a domain, the end client is outside it). With
// the per-peer flush aggregator ON, legs that arrive while a kFlushRequest
// flight is in the air join it — the distributed analogue of §5.5 batch
// flushing — so flush message count and peer log flushes grow sublinearly
// in K. With it OFF every leg pays its own round trip.
//
// Sweeps K ∈ {1, 2, 4, 8, 16} in both modes and reports response-time
// quantiles plus the aggregator counters (flush.legs_requested,
// flush.legs_coalesced, flush.messages_saved, flush.peer_flushes_saved).
// Target: ≥30% fewer flush messages at K ≥ 8 with coalescing on.
//
// `--quick` runs only K = 8, fewer requests — used by
// scripts/check_bench_json.py (CTest `check_bench_json_flush`) to validate
// the BENCH_JSON schema.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "msp/msp.h"
#include "obs/blame.h"
#include "obs/session_stats.h"
#include "msp/service_domain.h"
#include "rpc/client_endpoint.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

constexpr double kTimeScale = 0.05;

struct Result {
  uint64_t requests = 0;
  obs::Histogram::Snapshot response;
  // Deltas over the measured run.
  uint64_t legs_requested = 0;
  uint64_t legs_coalesced = 0;
  uint64_t messages_saved = 0;
  uint64_t watermark_skips = 0;
  uint64_t flush_requests_sent = 0;
  uint64_t peer_flushes_saved = 0;
  uint64_t messages_sent = 0;
  uint64_t disk_flushes = 0;
  std::string telemetry_json = "[]";  ///< per-session SessionStats, all MSPs
  std::string blame_json = "{}";      ///< p99 tail-latency attribution
};

Result Measure(int clients, bool coalesce, int requests_per_client) {
  SimEnvironment env(kTimeScale);
  SimNetwork net(&env);
  // WAN-ish link: a longer flush round trip is exactly the regime the
  // aggregator targets — more legs arrive while a flight is in the air.
  net.set_default_one_way_ms(2.0);
  // Two servers and one peer share a domain. Each server's reply to its end
  // client crosses the pessimistic boundary with a flush leg to `peer` (the
  // intra-domain call makes the reply depend on peer's volatile log). Two
  // senders give the peer's inbound coalescer concurrent kFlushRequests to
  // batch; the per-sender aggregator alone already serializes each sender
  // to one in-flight request.
  DomainDirectory dir;
  dir.Assign("srv0", "domA");
  dir.Assign("srv1", "domA");
  dir.Assign("peer", "domA");
  SimDisk disk_s0(&env, "ds0"), disk_s1(&env, "ds1"), disk_p(&env, "dp");
  MspConfig cs0, cs1, cp;
  cs0.id = "srv0";
  cs1.id = "srv1";
  cp.id = "peer";
  cs0.coalesce_distributed_flushes = cs1.coalesce_distributed_flushes =
      cp.coalesce_distributed_flushes = coalesce;
  cs0.checkpoint_daemon = cs1.checkpoint_daemon = cp.checkpoint_daemon = false;
  cs0.thread_pool_size = cs1.thread_pool_size = 32;  // don't queue on workers
  Msp srv0(&env, &net, &disk_s0, &dir, cs0);
  Msp srv1(&env, &net, &disk_s1, &dir, cs1);
  Msp peer(&env, &net, &disk_p, &dir, cp);
  peer.RegisterMethod("echo", [](ServiceContext*, const Bytes& a, Bytes* r) {
    *r = a;
    return Status::OK();
  });
  for (Msp* srv : {&srv0, &srv1}) {
    srv->RegisterMethod("work", [](ServiceContext* ctx, const Bytes& a,
                                   Bytes* r) {
      return ctx->Call("peer", "echo", a, r);
    });
  }
  Result out;
  if (!peer.Start().ok() || !srv0.Start().ok() || !srv1.Start().ok()) {
    return out;
  }

  obs::MetricsRegistry& m = env.metrics();
  obs::Histogram* resp = m.GetHistogram("bench.response_ms");

  // One endpoint + session per client, reused across warm-up and the
  // measured phase (a fresh same-named session would collide with the
  // server's session state for the first one).
  std::vector<std::unique_ptr<ClientEndpoint>> endpoints;
  std::vector<ClientSession> sessions;
  for (int c = 0; c < clients; ++c) {
    endpoints.push_back(std::make_unique<ClientEndpoint>(
        &env, &net, "cli" + std::to_string(c)));
    // Split the clients across the two servers so the peer sees concurrent
    // kFlushRequests from more than one sender.
    sessions.push_back(
        endpoints.back()->StartSession("srv" + std::to_string(c % 2)));
  }
  auto run_clients = [&](int n_requests) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Bytes reply;
        for (int i = 0; i < n_requests; ++i) {
          CallStats stats;
          if (!endpoints[c]
                   ->Call(&sessions[c], "work", "x", &reply, &stats)
                   .ok()) {
            return;
          }
          resp->Record(stats.response_model_ms);
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  // Warm-up (session materialization records) excluded from the deltas.
  run_clients(2);

  obs::Histogram::Snapshot r0 = resp->Snap();
  uint64_t legs0 = m.GetCounter("flush.legs_requested")->Value();
  uint64_t coal0 = m.GetCounter("flush.legs_coalesced")->Value();
  uint64_t saved0 = m.GetCounter("flush.messages_saved")->Value();
  uint64_t skip0 = m.GetCounter("flush.watermark_skips")->Value();
  uint64_t sent0 = m.GetCounter("flush.requests_sent")->Value();
  uint64_t psave0 = m.GetCounter("flush.peer_flushes_saved")->Value();
  auto s0 = env.stats().Snap();

  run_clients(requests_per_client);

  out.response = resp->Snap().Delta(r0);
  out.requests = out.response.count;
  out.legs_requested = m.GetCounter("flush.legs_requested")->Value() - legs0;
  out.legs_coalesced = m.GetCounter("flush.legs_coalesced")->Value() - coal0;
  out.messages_saved = m.GetCounter("flush.messages_saved")->Value() - saved0;
  out.watermark_skips = m.GetCounter("flush.watermark_skips")->Value() - skip0;
  out.flush_requests_sent =
      m.GetCounter("flush.requests_sent")->Value() - sent0;
  out.peer_flushes_saved =
      m.GetCounter("flush.peer_flushes_saved")->Value() - psave0;
  auto s1 = env.stats().Snap();
  out.messages_sent = s1.messages_sent - s0.messages_sent;
  out.disk_flushes = s1.disk_flushes - s0.disk_flushes;
  std::vector<obs::SessionStatsSnapshot> tel = srv0.SessionTelemetry();
  for (Msp* other : {&srv1, &peer}) {
    std::vector<obs::SessionStatsSnapshot> t = other->SessionTelemetry();
    tel.insert(tel.end(), t.begin(), t.end());
  }
  out.telemetry_json = obs::SessionTelemetryJson(tel);
  out.blame_json =
      obs::AttributeTailQuantile(env.tracer().Events(), 0.99).ToJson();
  srv0.Shutdown();
  srv1.Shutdown();
  peer.Shutdown();
  return out;
}

void Emit(int clients, bool coalesce, const Result& r) {
  obs::Json j;
  j.Add("clients", clients)
      .Add("coalesce", coalesce)
      .Add("requests", r.requests)
      .Add("avg_ms", r.response.Mean())
      .Add("p50_ms", r.response.P50())
      .Add("p90_ms", r.response.P90())
      .Add("p99_ms", r.response.P99())
      .Add("max_ms", r.response.max)
      .Add("response", r.response)
      .Add("legs_requested", r.legs_requested)
      .Add("legs_coalesced", r.legs_coalesced)
      .Add("messages_saved", r.messages_saved)
      .Add("watermark_skips", r.watermark_skips)
      .Add("flush_requests_sent", r.flush_requests_sent)
      .Add("peer_flushes_saved", r.peer_flushes_saved)
      .Add("messages_sent", r.messages_sent)
      .Add("disk_flushes", r.disk_flushes)
      .AddRaw("session_telemetry", r.telemetry_json)
      .AddRaw("p99_blame", r.blame_json);
  bench::EmitJson("flush_coalescing", j);
}

void RunSweep(const std::vector<int>& ks, int requests_per_client) {
  bench::Table table({"clients", "mode", "avg(ms)", "p99(ms)", "flush msgs",
                      "legs", "coalesced", "msgs saved", "peer flushes saved",
                      "disk flushes"});
  std::vector<Result> on(ks.size()), off(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    off[i] = Measure(ks[i], /*coalesce=*/false, requests_per_client);
    on[i] = Measure(ks[i], /*coalesce=*/true, requests_per_client);
    Emit(ks[i], false, off[i]);
    Emit(ks[i], true, on[i]);
    for (const auto* r : {&off[i], &on[i]}) {
      table.AddRow({std::to_string(ks[i]), r == &on[i] ? "coalesce" : "per-leg",
                    bench::Fmt(r->response.Mean(), 2),
                    bench::Fmt(r->response.P99(), 2),
                    std::to_string(r->flush_requests_sent),
                    std::to_string(r->legs_requested),
                    std::to_string(r->legs_coalesced),
                    std::to_string(r->messages_saved),
                    std::to_string(r->peer_flushes_saved),
                    std::to_string(r->disk_flushes)});
    }
  }
  printf("\n");
  table.Print();

  printf("\nshape checks:\n");
  auto check = [](const char* what, bool ok) {
    printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  };
  for (size_t i = 0; i < ks.size(); ++i) {
    if (ks[i] < 8) continue;
    double reduction =
        off[i].flush_requests_sent == 0
            ? 0
            : 1.0 - double(on[i].flush_requests_sent) /
                        double(off[i].flush_requests_sent);
    char buf[128];
    snprintf(buf, sizeof(buf),
             "K=%d: coalescing cuts flush messages by >=30%% (got %.0f%%)",
             ks[i], reduction * 100.0);
    check(buf, reduction >= 0.30);
  }
  if (!ks.empty()) {
    size_t last = ks.size() - 1;
    check("coalescing does not hurt mean response at max K",
          on[last].response.Mean() <= off[last].response.Mean() * 1.10);
    check("coalescing-off saves no messages (sanity)",
          off[last].messages_saved == 0 && off[last].legs_coalesced == 0);
  }
}

}  // namespace
}  // namespace msplog

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  msplog::bench::Header(
      "bench_flush_coalescing",
      "distributed-flush group commit: flush messages & response time vs "
      "concurrent clients, per-peer aggregator on/off");
  if (quick) {
    msplog::RunSweep({8}, /*requests_per_client=*/10);
  } else {
    msplog::RunSweep({1, 2, 4, 8, 16}, /*requests_per_client=*/30);
  }
  return 0;
}
