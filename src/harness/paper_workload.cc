#include "audit/mutex.h"
#include "harness/paper_workload.h"

#include <algorithm>

namespace msplog {

const char* PaperConfigName(PaperConfig c) {
  switch (c) {
    case PaperConfig::kLoOptimistic: return "LoOptimistic";
    case PaperConfig::kPessimistic: return "Pessimistic";
    case PaperConfig::kNoLog: return "NoLog";
    case PaperConfig::kPsession: return "Psession";
    case PaperConfig::kStateServer: return "StateServer";
  }
  return "?";
}

namespace {
RecoveryMode ModeFor(PaperConfig c) {
  switch (c) {
    case PaperConfig::kLoOptimistic:
    case PaperConfig::kPessimistic:
      return RecoveryMode::kLogBased;
    case PaperConfig::kNoLog:
      return RecoveryMode::kNoLog;
    case PaperConfig::kPsession:
      return RecoveryMode::kPsession;
    case PaperConfig::kStateServer:
      return RecoveryMode::kStateServer;
  }
  return RecoveryMode::kNoLog;
}
}  // namespace

PaperWorkload::PaperWorkload(PaperWorkloadOptions options)
    : options_(options) {
  env_ = std::make_unique<SimEnvironment>(options_.time_scale);
  network_ = std::make_unique<SimNetwork>(env_.get());
  network_->set_default_one_way_ms(0.5);
  DiskGeometry geometry;
  geometry.os_interference_prob = options_.os_interference_prob;
  disk1_ = std::make_unique<SimDisk>(env_.get(), "disk1", geometry, 11);
  disk2_ = std::make_unique<SimDisk>(env_.get(), "disk2", geometry, 22);

  // Service domains: LoOptimistic shares one domain; Pessimistic splits
  // them (every message pessimistically logged). Baselines are irrelevant
  // to domains but harmless to configure.
  if (options_.config == PaperConfig::kLoOptimistic) {
    directory_.Assign("msp1", "domainA");
    directory_.Assign("msp2", "domainA");
  } else {
    directory_.Assign("msp1", "domainA");
    directory_.Assign("msp2", "domainB");
  }

  auto make_config = [&](const std::string& id) {
    MspConfig c;
    c.id = id;
    c.mode = ModeFor(options_.config);
    c.thread_pool_size = options_.thread_pool_size;
    c.batch_flush = options_.batch_flush;
    c.batch_timeout_ms = options_.batch_timeout_ms;
    c.session_checkpoint_threshold_bytes =
        options_.session_checkpoint_threshold_bytes;
    c.msp_checkpoint_log_bytes = options_.msp_checkpoint_log_bytes;
    c.checkpoint_daemon = options_.checkpoint_daemon;
    c.call_resend_timeout_ms = options_.call_resend_timeout_ms;
    c.flush_timeout_ms = options_.flush_timeout_ms;
    c.busy_backoff_ms = options_.client_busy_backoff_ms;
    c.single_core_cpu = options_.single_core_cpu;
    c.cpu_per_flush_ms = options_.cpu_per_flush_ms;
    c.state_server = "stateserver";
    return c;
  };
  msp1_ = std::make_unique<Msp>(env_.get(), network_.get(), disk1_.get(),
                                &directory_, make_config("msp1"));
  msp2_ = std::make_unique<Msp>(env_.get(), network_.get(), disk2_.get(),
                                &directory_, make_config("msp2"));
  if (options_.config == PaperConfig::kStateServer) {
    state_server_ =
        std::make_unique<StateServerNode>(env_.get(), network_.get(),
                                          "stateserver");
  }

  // Link latencies (§5.1 measurements).
  network_->SetLinkLatency("msp1", "msp2", options_.msp_one_way_ms);
  if (state_server_) {
    network_->SetLinkLatency("msp1", "stateserver", options_.ss_one_way_ms);
    network_->SetLinkLatency("msp2", "stateserver", options_.ss_one_way_ms);
  }

  RegisterMethods(msp1_.get(), /*is_msp1=*/true);
  RegisterMethods(msp2_.get(), /*is_msp1=*/false);
}

PaperWorkload::~PaperWorkload() { Shutdown(); }

Status PaperWorkload::Start() {
  if (state_server_) MSPLOG_RETURN_IF_ERROR(state_server_->Start());
  MSPLOG_RETURN_IF_ERROR(msp2_->Start());
  return msp1_->Start();
}

void PaperWorkload::Shutdown() {
  JoinCrashThreads();
  if (msp1_) msp1_->Shutdown();
  if (msp2_) msp2_->Shutdown();
  if (state_server_) state_server_->Crash();
}

void PaperWorkload::RegisterMethods(Msp* msp, bool is_msp1) {
  const size_t n_vars =
      std::max<size_t>(1, options_.session_state_bytes /
                              std::max<size_t>(1, options_.session_write_bytes));
  const size_t sv_bytes = options_.shared_var_bytes;
  const size_t write_bytes = options_.session_write_bytes;
  const size_t payload_bytes = options_.payload_bytes;
  const double compute_ms = options_.method_compute_ms;
  const int calls = options_.calls_per_request;

  if (is_msp1) {
    msp->RegisterSharedVariable("SV0", MakePayload(sv_bytes, 0));
    msp->RegisterSharedVariable("SV1", MakePayload(sv_bytes, 1));
    msp->RegisterMethod(
        "ServiceMethod1",
        [this, n_vars, sv_bytes, write_bytes, payload_bytes, compute_ms,
         calls](ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          (void)arg;
          uint64_t seq = ctx->request_seqno();
          // First request materializes the full 8 KB session state.
          if (!ctx->HasSessionVar("s0")) {
            for (size_t i = 0; i < n_vars; ++i) {
              ctx->SetSessionVar("s" + std::to_string(i),
                                 MakePayload(write_bytes, i));
            }
          }
          Bytes v;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("SV0", &v));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("SV0", MakePayload(sv_bytes, seq * 2 + 1)));
          ctx->Compute(compute_ms);
          for (int c = 0; c < calls; ++c) {
            Bytes reply;
            MSPLOG_RETURN_IF_ERROR(ctx->Call(
                "msp2", "ServiceMethod2",
                MakePayload(payload_bytes, seq * 131 + c), &reply));
          }
          // §5.4 crash injection point: the reply from ServiceMethod2 has
          // been received by MSP1; MSP2 is instructed to kill itself,
          // losing its buffered log records.
          if (!ctx->in_replay() && crash_armed_.exchange(false)) {
            TriggerCrashAsync();
          }
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("SV1", &v));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("SV1", MakePayload(sv_bytes, seq * 2 + 2)));
          ctx->SetSessionVar("s" + std::to_string(seq % n_vars),
                             MakePayload(write_bytes, seq));
          *result = MakePayload(payload_bytes, seq + 7);
          return Status::OK();
        });
  } else {
    msp->RegisterSharedVariable("SV2", MakePayload(sv_bytes, 2));
    msp->RegisterSharedVariable("SV3", MakePayload(sv_bytes, 3));
    msp->RegisterMethod(
        "ServiceMethod2",
        [n_vars, sv_bytes, write_bytes, payload_bytes, compute_ms](
            ServiceContext* ctx, const Bytes& arg, Bytes* result) {
          (void)arg;
          uint64_t seq = ctx->request_seqno();
          if (!ctx->HasSessionVar("s0")) {
            for (size_t i = 0; i < n_vars; ++i) {
              ctx->SetSessionVar("s" + std::to_string(i),
                                 MakePayload(write_bytes, i));
            }
          }
          Bytes v;
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("SV2", &v));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("SV2", MakePayload(sv_bytes, seq * 3 + 1)));
          MSPLOG_RETURN_IF_ERROR(ctx->ReadShared("SV3", &v));
          MSPLOG_RETURN_IF_ERROR(
              ctx->WriteShared("SV3", MakePayload(sv_bytes, seq * 3 + 2)));
          ctx->Compute(compute_ms);
          ctx->SetSessionVar("s" + std::to_string(seq % n_vars),
                             MakePayload(write_bytes, seq));
          *result = MakePayload(payload_bytes, seq + 13);
          return Status::OK();
        });
  }
}

void PaperWorkload::ArmCrash() { crash_armed_.store(true); }

void PaperWorkload::TriggerCrashAsync() {
  crashes_injected_.fetch_add(1);
  audit::LockGuard lk(crash_threads_mu_);
  crash_threads_.emplace_back([this] {
    audit::LockGuard cycle(crash_cycle_mu_);
    msp2_->Crash();
    (void)msp2_->Start();  // restart runs crash recovery (§4.3)
  });
}

void PaperWorkload::JoinCrashThreads() {
  audit::LockGuard lk(crash_threads_mu_);
  for (auto& t : crash_threads_) {
    if (t.joinable()) t.join();
  }
  crash_threads_.clear();
}

std::unique_ptr<ClientEndpoint> PaperWorkload::MakeClient(
    const std::string& name) {
  network_->SetLinkLatency(name, "msp1", options_.client_one_way_ms);
  ClientOptions copts;
  copts.busy_backoff_ms = options_.client_busy_backoff_ms;
  copts.max_sends = options_.client_max_sends;
  return std::make_unique<ClientEndpoint>(env_.get(), network_.get(), name,
                                          copts);
}

RunResult PaperWorkload::RunSingleClient(int requests, int crash_every) {
  return RunMultiClient(1, requests, crash_every);
}

RunResult PaperWorkload::RunMultiClient(int clients, int requests_per_client,
                                        int crash_every) {
  struct PerClient {
    double sum_ms = 0;
    double max_ms = 0;
    uint64_t done = 0;
    uint64_t resends = 0;
    uint64_t busy = 0;
  };
  std::vector<PerClient> results(clients);
  std::atomic<uint64_t> global_count{0};
  auto response_hist = std::make_unique<obs::Histogram>();

  double t0 = env_->NowModelMs();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      auto client =
          MakeClient("client" + std::to_string(next_client_.fetch_add(1)));
      ClientSession session = client->StartSession("msp1");
      for (int r = 0; r < requests_per_client; ++r) {
        Bytes arg = MakePayload(options_.payload_bytes, r);
        Bytes reply;
        CallStats cs;
        Status st = client->Call(&session, "ServiceMethod1", arg, &reply, &cs);
        if (!st.ok()) continue;  // timed-out request: not counted
        results[i].sum_ms += cs.response_model_ms;
        response_hist->Record(cs.response_model_ms);
        results[i].max_ms = std::max(results[i].max_ms, cs.response_model_ms);
        results[i].done++;
        results[i].resends += cs.sends - 1;
        results[i].busy += cs.busy_replies;
        uint64_t n = global_count.fetch_add(1) + 1;
        if (crash_every > 0 && n % static_cast<uint64_t>(crash_every) == 0) {
          ArmCrash();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  JoinCrashThreads();
  double elapsed = env_->NowModelMs() - t0;

  RunResult out;
  for (const auto& r : results) {
    out.requests += r.done;
    out.avg_response_ms += r.sum_ms;
    out.max_response_ms = std::max(out.max_response_ms, r.max_ms);
    out.resends += r.resends;
    out.busy_replies += r.busy;
  }
  if (out.requests > 0) out.avg_response_ms /= static_cast<double>(out.requests);
  out.response_hist = response_hist->Snap();
  out.p50_ms = out.response_hist.P50();
  out.p90_ms = out.response_hist.P90();
  out.p99_ms = out.response_hist.P99();
  out.elapsed_model_ms = elapsed;
  if (elapsed > 0) {
    out.throughput_rps = static_cast<double>(out.requests) / (elapsed / 1000.0);
  }
  return out;
}

}  // namespace msplog
