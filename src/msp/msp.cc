#include "audit/mutex.h"
#include "msp/msp.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "audit/invariants.h"
#include "baseline/session_store.h"
#include "baseline/state_server.h"
#include "msp/exec_context.h"
#include "msp/recovery_coordinator.h"
#include "obs/json.h"

namespace msplog {

Msp::Msp(SimEnvironment* env, SimNetwork* network, SimDisk* disk,
         DomainDirectory* directory, MspConfig config)
    : env_(env),
      network_(network),
      disk_(disk),
      directory_(directory),
      config_(std::move(config)),
      anchor_(disk, config_.id + ".anchor") {
  obs::MetricsRegistry& m = env_->metrics();
  const std::string& id = config_.id;
  hist_queue_wait_ms_ = m.GetHistogram("msp.queue_wait_ms", id);
  hist_execute_ms_ = m.GetHistogram("msp.execute_ms", id);
  hist_flush_wait_ms_ = m.GetHistogram("msp.flush_wait_ms", id);
  hist_request_ms_ = m.GetHistogram("msp.request_ms", id);
  hist_replay_ms_ = m.GetHistogram("msp.replay_ms", id);
  ctr_own_requests_ = m.GetCounter("msp.requests", id);

  // Black-box registration: at any freeze (our crash, or any invariant
  // violation) the environment's flight recorder captures this server's
  // statusz, in-flight session set, and log tail extent.
  env_->flight_recorder().SetSnapshotProvider(
      config_.id, [this] { return BuildFlightSnapshot(); });

  FlushAggregator::Options fopt;
  fopt.self = config_.id;
  fopt.coalesce = config_.coalesce_distributed_flushes;
  flush_agg_ = std::make_unique<FlushAggregator>(
      env_, fopt, [this](const MspId& peer, const Bytes& wire) {
        network_->Send(config_.id, peer, wire);
      });
}

Msp::~Msp() {
  if (state_.load() == State::kRunning) Shutdown();
  env_->flight_recorder().ClearSnapshotProvider(config_.id);
}

void Msp::RegisterMethod(const std::string& name, ServiceMethod fn) {
  methods_[name] = std::move(fn);
}

void Msp::RegisterSharedVariable(const std::string& name, Bytes initial) {
  audit::LockGuard lk(vars_mu_);
  shared_vars_[name] = std::make_shared<SharedVariable>(name, std::move(initial));
}

void Msp::ChargeCpu(double model_ms) {
  if (model_ms <= 0) return;
  if (config_.single_core_cpu) {
    audit::LockGuard lk(cpu_mu_);
    env_->SleepModelMs(model_ms);
  } else {
    env_->SleepModelMs(model_ms);
  }
}

bool Msp::IntraDomain(const std::string& other) const {
  return directory_->SameDomain(config_.id, other);
}

std::shared_ptr<Session> Msp::GetSession(const std::string& id) const {
  audit::LockGuard lk(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Status Msp::Start() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  State st = state_.load();
  if (st == State::kRunning || st == State::kRecovering) {
    return Status::InvalidArgument("MSP already running");
  }
  // Live before anything is built: CrashLocked tears down only a live
  // server. A failed start stops the threads and drops the log and store it
  // built, so a retry runs recovery again from the durable state.
  state_.store(State::kRecovering);
  Status s = StartLocked();
  if (!s.ok()) {
    CrashLocked(/*is_crash=*/false);
    state_.store(State::kStopped);
  }
  return s;
}

Status Msp::StartLocked() {
  LogFileOptions lopt;
  lopt.batch_flush = config_.batch_flush;
  lopt.batch_timeout_ms = config_.batch_timeout_ms;
  if (config_.cpu_per_flush_ms > 0) {
    lopt.on_physical_write = [this] { ChargeCpu(config_.cpu_per_flush_ms); };
  }
  log_ = std::make_unique<LogFile>(env_, disk_, config_.id + ".log", lopt);
  inbound_flush_ = std::make_unique<InboundFlushCoalescer>(
      env_, config_.id,
      // audit:allow(blocking-under-lock): lambda runs on control-pool
      // threads when requests drain, not under the lifecycle lock here.
      [this](uint64_t flush_sn) { return log_->FlushUpTo(flush_sn); },
      [this](const InboundFlushCoalescer::Request& r) {
        SendFlushReply(r.sender, r.flush_id, /*ok=*/true, 0, 0);
      });
  pool_ = std::make_unique<ThreadPool>(config_.thread_pool_size);
  control_pool_ = std::make_unique<ThreadPool>(2);
  {
    audit::LockGuard lk(sessions_mu_);
    sessions_.clear();
  }
  {
    audit::LockGuard lk(table_mu_);
    recovered_table_.Clear();
  }
  flush_agg_->Reset();
  {
    audit::LockGuard lk(cp_mu_);
    cp_stop_ = false;
  }
  last_msp_cp_log_end_.store(0);

  if (config_.mode == RecoveryMode::kPsession) {
    auto db = std::make_unique<KvDbSessionStore>(env_, disk_,
                                                 config_.id + ".db");
    MSPLOG_RETURN_IF_ERROR(db->Recover());
    store_ = std::move(db);
  } else if (config_.mode == RecoveryMode::kStateServer) {
    store_ = std::make_unique<StateServerClient>(
        config_.id, config_.state_server,
        [this](const std::string& dest, const Message& req, Message* reply) {
          return CallRoundTrip(dest, req, /*check_orphan_reply=*/false, reply);
        });
  }

  if (config_.mode == RecoveryMode::kLogBased) {
    // Crash recovery runs on EVERY start — a restarted process cannot tell
    // whether its previous incarnation crashed before flushing anything, and
    // reusing an epoch after such a crash would let lost state numbers be
    // reissued. A genuinely fresh boot just bumps to epoch 1 with an empty
    // scan, which is harmless. Only the bounded analysis pass and the open
    // preparation run here (phased coordinator); no session is replayed yet.
    MSPLOG_RETURN_IF_ERROR(CrashRecovery());
  }

  mailbox_ = network_->Register(config_.id);
  state_.store(State::kRunning);
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  if (config_.checkpoint_daemon && config_.mode == RecoveryMode::kLogBased) {
    checkpoint_thread_ = std::thread([this] { CheckpointDaemonLoop(); });
  }

  // Instant restart (§4.3 + on-demand REDO): the server is open as of the
  // state transition above. Surviving sessions replay in background
  // priority order; a request for a not-yet-replayed session jumps the
  // queue through the HandleRequestMsg admission gate. sequential_recovery
  // (the ablation) drains one session at a time inside the coordinator.
  if (config_.mode == RecoveryMode::kLogBased) {
    recovery_coordinator_->BeginBackgroundDrain();
  }

  last_start_end_ms_.store(env_->NowModelMs(), std::memory_order_relaxed);
  return Status::OK();
}

void Msp::Crash() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  CrashLocked(/*is_crash=*/true);
}

void Msp::CrashLocked(bool is_crash) {
  State prev = state_.exchange(State::kCrashed);
  if (prev == State::kCrashed || prev == State::kStopped) return;

  if (is_crash) {
    // Black box first, while the log extents and session table still
    // describe the moment of death. The bundle is generation-stamped so the
    // recovery-side join can tell this fault from earlier ones.
    const uint64_t gen = crash_generation_.fetch_add(1) + 1;
    env_->flight_recorder().FreezeOnCrash(config_.id, gen);
  }

  network_->Unregister(config_.id);
  if (log_) log_->Crash();
  {
    audit::LockGuard lk(calls_mu_);
    for (auto& [key, pc] : pending_calls_) {
      audit::LockGuard plk(pc->mu);
      pc->failed = true;
      pc->cv.notify_all();
    }
  }
  // Fail every in-flight and queued distributed-flush leg: waiters wake,
  // see crashed, and no aggregator state leaks into the next incarnation.
  flush_agg_->FailAll();
  {
    audit::LockGuard lk(cp_mu_);
    cp_stop_ = true;
  }
  cp_cv_.notify_all();

  if (pool_) pool_->Abort();
  if (control_pool_) control_pool_->Abort();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  // Everything volatile dies with the process. The SimDisk content — the
  // durable log prefix, the anchor, kvdb WAL — survives for the next
  // Start().
  log_.reset();
  {
    audit::LockGuard lk(sessions_mu_);
    sessions_.clear();
  }
  {
    audit::LockGuard lk(vars_mu_);
    for (auto& [name, v] : shared_vars_) {
      audit::SharedUniqueLock vlk(v->rw);
      v->value = v->initial_value;
      v->dv.Clear();
      v->state_number = 0;
      v->last_write_lsn = 0;
      v->last_checkpoint_lsn = 0;
      v->writes_since_cp = 0;
      v->msp_cps_since_cp = 0;
    }
  }
  {
    audit::LockGuard lk(calls_mu_);
    pending_calls_.clear();
  }
  inbound_flush_.reset();
  store_.reset();
  pool_.reset();
  control_pool_.reset();
}

void Msp::Shutdown() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  if (state_.load() != State::kRunning) return;
  // Make everything durable, then tear down like a crash: a subsequent
  // Start() recovers the complete state from the log.
  // audit:allow(blocking-under-lock): lifecycle transitions serialize here.
  if (log_) log_->FlushAll();
  CrashLocked(/*is_crash=*/false);
  state_.store(State::kStopped);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Msp::DispatchLoop() {
  Packet p;
  while (mailbox_->Pop(&p)) {
    Message m;
    if (!Message::Decode(p.wire, &m).ok()) continue;  // garbage: drop
    switch (m.type) {
      case MessageType::kRequest:
        HandleRequestMsg(std::move(m));
        break;
      case MessageType::kReply:
        HandleReplyMsg(std::move(m));
        break;
      case MessageType::kFlushRequest:
        // Move-only task type: the message moves into the closure, no copy.
        control_pool_->Submit(
            [this, fm = std::move(m)] { HandleFlushRequest(fm); });
        break;
      case MessageType::kFlushReply:
        HandleFlushReply(std::move(m));
        break;
      case MessageType::kRecoveryAnnounce:
        HandleRecoveryAnnounce(std::move(m));
        break;
      default:
        break;
    }
  }
}

void Msp::SendBusyReply(const Message& req) {
  Message r;
  r.type = MessageType::kReply;
  r.sender = config_.id;
  r.session_id = req.session_id;
  r.seqno = req.seqno;
  r.reply_code = ReplyCode::kBusy;
  network_->Send(config_.id, req.sender, r.Encode());
}

void Msp::HandleRequestMsg(Message m) {
  if (state_.load() != State::kRunning) {
    SendBusyReply(m);
    return;
  }
  std::shared_ptr<Session> s;
  bool arm = false;
  bool on_demand = false;
  bool ended = false;
  {
    audit::LockGuard lk(sessions_mu_);
    auto it = sessions_.find(m.session_id);
    if (it == sessions_.end()) {
      s = std::make_shared<Session>(m.session_id, m.sender);
      sessions_[m.session_id] = s;
    } else {
      s = it->second;
    }
    if (s->ended) {
      ended = true;  // reply outside the table lock
    } else {
      double now_ms = env_->NowModelMs();
      // Allocate this request's server-side span, parented on the span the
      // sender stamped on the wire (client root or caller's request span).
      obs::SpanContext span;
      if (m.trace_id != 0) {
        span.trace_id = m.trace_id;
        span.span_id = obs::NextSpanId();
        span.parent_span_id = m.parent_span_id;
      }
      env_->tracer().Record(obs::TraceEventType::kEnqueue, now_ms, config_.id,
                            m.session_id, m.seqno, m.method, span);
      s->pending_requests.push_back({std::move(m), now_ms, span});
      if (s->recovering) {
        // Admission gate (instant restart): the request is queued and a
        // replay of JUST this session is triggered on demand — it jumps the
        // background drain's priority order. The replay epilogue arms the
        // worker, so the queued request serializes after the session's
        // replayed history. If a replay already owns the session
        // (replay_claimed), queueing behind it is all that is needed.
        on_demand = !s->replay_claimed;
      } else if (!s->worker_active) {
        s->worker_active = true;
        arm = true;
      }
    }
  }
  if (ended) {
    // A request to an ended session gets a definitive error rather than
    // silence — the client should not retry forever.
    Message r;
    r.type = MessageType::kReply;
    r.sender = config_.id;
    r.session_id = m.session_id;
    r.seqno = m.seqno;
    r.reply_code = ReplyCode::kAppError;
    r.payload = "session ended";
    network_->Send(config_.id, m.sender, r.Encode());
    return;
  }
  if (on_demand) {
    pool_->Submit([this, s] { SessionRecoveryTask(s, /*on_demand=*/true); });
    return;
  }
  if (arm) {
    pool_->Submit([this, s] { SessionWorker(s); });
  }
}

void Msp::SessionWorker(std::shared_ptr<Session> s) {
  while (true) {
    Message m;
    double enqueue_ms = 0;
    obs::SpanContext span;
    bool have_msg = false;
    bool check_orphan = false;
    bool take_cp = false;
    {
      audit::LockGuard lk(sessions_mu_);
      if (state_.load() != State::kRunning) {
        s->worker_active = false;
        return;
      }
      if (s->needs_orphan_check) {
        s->needs_orphan_check = false;
        check_orphan = true;
      } else if (s->needs_checkpoint) {
        s->needs_checkpoint = false;
        take_cp = true;
      } else if (!s->pending_requests.empty()) {
        m = std::move(s->pending_requests.front().msg);
        enqueue_ms = s->pending_requests.front().enqueue_model_ms;
        span = s->pending_requests.front().span;
        s->pending_requests.pop_front();
        have_msg = true;
      } else {
        s->worker_active = false;
        return;
      }
    }
    if (check_orphan) {
      if (SessionIsOrphan(s.get())) {
        (void)RecoverSessionReplay(s.get());
      }
      continue;
    }
    if (take_cp) {
      if (!s->ended && s->first_lsn.load() != 0) {
        Status st = TakeSessionCheckpoint(s.get());
        if (st.IsOrphan()) (void)RecoverSessionReplay(s.get());
      }
      continue;
    }
    if (have_msg) {
      double t_start = env_->NowModelMs();
      hist_queue_wait_ms_->Record(t_start - enqueue_ms);
      env_->tracer().Record(obs::TraceEventType::kDequeue, t_start, config_.id,
                            s->id, m.seqno, m.method, span);
      // kCrashed/kTimedOut: the client resends; nothing more to do here.
      (void)ProcessRequest(s.get(), m, span);
      hist_request_ms_->Record(env_->NowModelMs() - t_start);
      ctr_own_requests_->Add(1);
    }
  }
}

// ---------------------------------------------------------------------------
// Request processing (§3; the §5 baselines skip every log-based step)
// ---------------------------------------------------------------------------

Status Msp::ProcessRequest(Session* s, const Message& m,
                           const obs::SpanContext& span) {
  const bool log_based = config_.mode == RecoveryMode::kLogBased;
  const bool end_session = m.method == "__end_session";
  bool state_found = false;
  if (log_based) {
    // Interception point (§4.1): lazy orphan check on request receive.
    if (SessionIsOrphan(s)) {
      MSPLOG_RETURN_IF_ERROR(RecoverSessionReplay(s));
    }
    // Auditor: since the last request boundary the session's DV may only
    // have grown (any recovery in between re-synced the shadow).
    audit::CheckDvMonotonic("session " + s->id, s->audit_shadow_dv, s->dv);
  } else if (store_ && !end_session) {
    // A stateful baseline keeps the session's state in its store between
    // requests; a session that is ending needs none of it.
    Bytes blob;
    Status st = store_->Get(s->id, &blob);
    if (!st.ok() && !st.IsNotFound()) return st;
    state_found = st.ok();
    if (state_found) MSPLOG_RETURN_IF_ERROR(s->DecodeCheckpoint(blob));
  }

  // Duplicate / out-of-order detection (§3.1).
  if (m.seqno < s->next_expected_seqno) {
    if (s->buffered_reply.valid && s->buffered_reply.seqno == m.seqno) {
      Status st = SendReply(s, s->buffered_reply.code,
                            s->buffered_reply.payload, m.seqno, span);
      if (st.IsOrphan()) return RecoverSessionReplay(s);
      return st;
    }
    return Status::OK();  // stale duplicate
  }
  if (m.seqno > s->next_expected_seqno) {
    if (log_based || state_found) return Status::OK();  // out of order
    // A baseline lost the duplicate-detection state (NoLog crash, or the
    // state server died): accept the client's sequence as the new truth.
    // This is exactly the exactly-once guarantee these baselines lack.
    s->next_expected_seqno = m.seqno;
  }

  // Fig. 7, receive side: an orphan message is discarded outright; the
  // sender session will be rolled back and will resend. We extend the
  // paper's silent discard with an ORPHAN NOTICE carrying the recovered
  // state number that condemned the message — without it, a sender that
  // missed the recovery broadcast retries forever.
  if (m.has_dv) {
    std::optional<RecoveredStateTable::OrphanWitness> witness;
    {
      audit::LockGuard lk(table_mu_);
      witness = recovered_table_.FindOrphanEntry(m.dv);
    }
    if (witness) {
      env_->stats().orphans_detected.fetch_add(1);
      env_->tracer().Record(obs::TraceEventType::kOrphanDetected,
                            env_->NowModelMs(), config_.id, s->id, m.seqno,
                            "witness=" + witness->msp);
      Message r;
      r.type = MessageType::kReply;
      r.sender = config_.id;
      r.session_id = s->id;
      r.seqno = m.seqno;
      r.reply_code = ReplyCode::kOrphanNotice;
      r.payload = witness->msp;  // which peer's recovery condemned it
      r.rec_epoch = witness->epoch;
      r.rec_sn = witness->recovered_sn;
      network_->Send(config_.id, m.sender, r.Encode());
      return Status::OK();
    }
  }

  if (end_session) {
    if (log_based) {
      // Cascade: end the outgoing sessions this session started (§2.1 — a
      // session is started AND ended by a client request). Best effort; an
      // unreachable target's session is cleaned up by its own end-of-life
      // handling when requests for it error out.
      for (auto& [target, o] : s->outgoing) {
        Message endreq;
        endreq.type = MessageType::kRequest;
        endreq.sender = config_.id;
        endreq.session_id = o.session_id;
        endreq.seqno = o.next_seqno;
        endreq.method = "__end_session";
        Message rep;
        (void)CallRoundTrip(target, endreq, /*check_orphan_reply=*/false,
                            &rep, /*max_sends=*/3);
      }
      LogRecord end;
      end.type = LogRecordType::kSessionEnd;
      end.session_id = s->id;
      uint64_t lsn = log_->Append(end);
      // The end record must survive a crash or the session gets resurrected.
      MSPLOG_RETURN_IF_ERROR(log_->FlushUpTo(lsn));
      s->positions.Truncate();
    }
    {
      audit::LockGuard lk(sessions_mu_);
      s->ended = true;
    }
    return SendReply(s, ReplyCode::kOk, "", m.seqno, span);
  }

  if (log_based) {
    // First activity of a fresh session: mark its start in the log.
    if (s->first_lsn.load() == 0) {
      LogRecord start;
      start.type = LogRecordType::kSessionStart;
      start.session_id = s->id;
      start.target = s->client;
      s->first_lsn.store(log_->Append(start));
    }
    // Log the nondeterministic event: the request receive.
    LogRecord rec;
    rec.type = LogRecordType::kRequestReceive;
    rec.seqno = m.seqno;
    rec.target = m.method;
    rec.payload = m.payload;
    if (m.has_dv) {
      rec.has_dv = true;
      rec.dv = m.dv;
    }
    AppendSessionRecord(s, std::move(rec));
    if (m.has_dv) s->dv.Merge(m.dv);
    PublishDv(s);
  }

  // Execute the service method.
  ExecContext ctx(this, s, ExecContext::Mode::kNormal, m.seqno, nullptr, span);
  Bytes result;
  env_->tracer().Record(obs::TraceEventType::kExecStart, env_->NowModelMs(),
                        config_.id, s->id, m.seqno, m.method, span);
  double exec_t0 = env_->NowModelMs();
  Status st = InvokeMethod(m.method, &ctx, m.payload, &result);
  double exec_t1 = env_->NowModelMs();
  hist_execute_ms_->Record(exec_t1 - exec_t0);
  env_->tracer().Record(obs::TraceEventType::kExecEnd, exec_t1, config_.id,
                        s->id, m.seqno, st.ok() ? "" : st.ToString(), span);
  PublishDv(s);
  if (st.IsOrphan()) return RecoverSessionReplay(s);
  if (st.IsCrashed() || st.IsTimedOut()) return st;

  // Buffer the reply before sending it: a retry of this seqno is answered
  // from the buffer, never executed again — also when the send itself
  // fails, e.g. because its pessimistic flush timed out.
  ReplyCode code = st.ok() ? ReplyCode::kOk : ReplyCode::kAppError;
  s->buffered_reply = {true, m.seqno, code,
                       st.ok() ? std::move(result) : Bytes(st.ToString())};
  s->next_expected_seqno = m.seqno + 1;
  if (store_) {
    MSPLOG_RETURN_IF_ERROR(store_->Put(s->id, s->EncodeCheckpoint()));
  }
  Status rst = SendReply(s, code, s->buffered_reply.payload, m.seqno, span);
  if (rst.IsOrphan()) return RecoverSessionReplay(s);
  MSPLOG_RETURN_IF_ERROR(rst);
  s->audit_shadow_dv = s->dv;

  // Session checkpoint, only between requests (§3.2). A baseline never logs
  // a byte, so its threshold never trips.
  if (config_.session_checkpoint_threshold_bytes > 0 &&
      s->bytes_logged_since_cp >= config_.session_checkpoint_threshold_bytes) {
    Status cst = TakeSessionCheckpoint(s, span);
    if (cst.IsOrphan()) return RecoverSessionReplay(s);
  }

  if (after_request_hook_) after_request_hook_(this, s->id, m.seqno);
  return Status::OK();
}

Status Msp::InvokeMethod(const std::string& method, ExecContext* ctx,
                         const Bytes& arg, Bytes* result) {
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    return Status::InvalidArgument("no such method: " + method);
  }
  return it->second(ctx, arg, result);
}

Status Msp::SendReply(Session* s, ReplyCode code, const Bytes& payload,
                      uint64_t seqno, const obs::SpanContext& span) {
  Message r;
  r.type = MessageType::kReply;
  r.sender = config_.id;
  r.session_id = s->id;
  r.seqno = seqno;
  r.reply_code = code;
  r.payload = payload;
  // Echo the trace back: the reply's parent is this server's request span.
  r.trace_id = span.trace_id;
  r.parent_span_id = span.span_id;
  const Bytes* dv_wire = nullptr;
  if (config_.mode == RecoveryMode::kLogBased) {
    MSPLOG_RETURN_IF_ERROR(ApplySendRule(s, IntraDomain(s->client),
                                         "reply to ", s->client, span, &r,
                                         &dv_wire));
  }
  Bytes wire;
  r.AppendTo(&wire, dv_wire);
  network_->Send(config_.id, s->client, std::move(wire));
  env_->tracer().Record(obs::TraceEventType::kReplySent, env_->NowModelMs(),
                        config_.id, s->id, seqno, "", span);
  return Status::OK();
}

Status Msp::ApplySendRule(Session* s, bool intra, const char* what,
                          const std::string& dest,
                          const obs::SpanContext& span, Message* m,
                          const Bytes** dv_wire) {
  if (intra) {
    // Optimistic: attach the sender session's DV — or the whole process's
    // DV in the §3.2-strawman mode. The per-session path splices the
    // session's cached wire encoding instead of copying the DV map into the
    // message (the cache stays valid until the message is encoded: only
    // this worker thread mutates s->dv).
    m->has_dv = true;
    if (config_.per_session_dv) {
      *dv_wire = &s->CachedDvWire();
      env_->stats().dv_entries_attached.fetch_add(s->dv.entry_count());
    } else {
      m->dv = MspWideDv(s);
      env_->stats().dv_entries_attached.fetch_add(m->dv.entry_count());
    }
    return Status::OK();
  }
  // Pessimistic: an output leaving the service domain must never become an
  // orphan (§2.3), so its dependencies are flushed before it is sent.
  const DependencyVector flush_dv = PessimisticFlushDv(s);
  MSPLOG_RETURN_IF_ERROR(DistributedFlush(flush_dv, span));
  audit::CheckWalBeforeSend(what + dest, config_.id, epoch_.load(), flush_dv,
                            log_->durable_lsn());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Logging primitives
// ---------------------------------------------------------------------------

uint64_t Msp::AppendSessionRecord(Session* s, LogRecord rec) {
  rec.session_id = s->id;
  // Batch DV piggybacking: consecutive records of this session that carry
  // an identical DV splice one shared encoding into the log arena.
  const Bytes* dv_wire = nullptr;
  if (rec.has_dv) {
    auto& cache = s->logged_dv_cache;
    if (!cache.valid || !(cache.value == rec.dv)) {
      cache.wire.clear();
      BinaryWriter w(&cache.wire);
      rec.dv.EncodeTo(&w);
      cache.value = rec.dv;
      cache.valid = true;
    }
    dv_wire = &cache.wire;
  }
  size_t framed = 0;
  uint64_t lsn = log_->Append(rec, &framed, dv_wire);
  s->positions.Add(lsn);
  s->state_number = lsn;
  audit::CheckDvSelfMonotonic("session " + s->id, config_.id, s->dv,
                              StateId{epoch_.load(), lsn});
  s->dv.Set(config_.id, StateId{epoch_.load(), lsn});
  s->bytes_logged_since_cp += framed;
  return lsn;
}

std::shared_ptr<SharedVariable> Msp::GetOrCreateSharedVar(
    const std::string& name) {
  audit::LockGuard lk(vars_mu_);
  auto it = shared_vars_.find(name);
  if (it != shared_vars_.end()) return it->second;
  auto v = std::make_shared<SharedVariable>(name, Bytes());
  shared_vars_[name] = v;
  return v;
}

const Bytes& Msp::LogSharedRead(Session* s, SharedVariable* var) {
  LogRecord rec;
  rec.type = LogRecordType::kSharedRead;
  rec.var_id = var->name;
  rec.payload = var->value;
  rec.has_dv = true;
  rec.dv = var->dv;
  AppendSessionRecord(s, std::move(rec));
  s->dv.Merge(var->dv);
  return var->value;
}

Status Msp::LogSharedWrite(Session* s, SharedVariable* var, ByteView value) {
  // Fig. 8, write: the writer need not check whether the existing value is
  // an orphan — it is being replaced. The write record carries the writer
  // session's DV, the new value, and the LSN of the previous write record
  // (backward chain).
  LogRecord rec;
  rec.type = LogRecordType::kSharedWrite;
  rec.session_id = s->id;
  rec.var_id = var->name;
  rec.payload = Bytes(value);
  rec.has_dv = true;
  rec.dv = s->dv;
  rec.prev_lsn = var->last_write_lsn;
  size_t framed = 0;
  uint64_t lsn = log_->Append(rec, &framed);
  // The write record belongs to the *variable's* recovery, not the session's
  // replay: it is not added to the position stream and does not change the
  // session's state number (Fig. 8). The record still carries the writing
  // session's id, and the offline inspector's per-session counts group by it.
  s->last_shared_write_lsn = lsn;
  s->bytes_logged_since_cp += framed;

  // Refined dependency tracking (§3.3): a write REPLACES the variable's DV
  // with the writer's; nothing flows back into the writer.
  var->dv.ReplaceWith(s->dv);
  var->state_number = lsn;
  var->last_write_lsn = lsn;
  var->value = Bytes(value);
  var->writes_since_cp++;

  if (config_.shared_var_checkpoint_threshold_writes > 0 &&
      var->writes_since_cp >= config_.shared_var_checkpoint_threshold_writes) {
    Status st = TakeSharedVarCheckpoint(var);
    if (st.IsOrphan()) {
      // The variable's value turned out to be an orphan during the
      // checkpoint flush: roll it back instead of checkpointing (§4.2).
      env_->stats().orphans_detected.fetch_add(1);
      MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(var));
    } else if (!st.ok() && !st.IsCrashed()) {
      return st;
    }
  }
  return Status::OK();
}

Status Msp::SharedReadImpl(Session* s, const std::string& name, Bytes* out) {
  auto var = GetOrCreateSharedVar(name);
  if (config_.mode != RecoveryMode::kLogBased) {
    audit::SharedLock lk(var->rw);
    *out = var->value;
    return Status::OK();
  }
  // Interception point: the reader session's own orphan status.
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  // Fig. 8, read: check whether the variable's value is an orphan; if so,
  // the reader itself rolls it back along the backward chain (§4.2).
  audit::SharedLock rlk(var->rw);
  if (DvIsOrphan(var->dv)) {
    rlk.unlock();
    audit::SharedUniqueLock wlk(var->rw);
    if (DvIsOrphan(var->dv)) {
      env_->stats().orphans_detected.fetch_add(1);
      MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(var.get()));
    }
    // Value logging under the exclusive lock — correct, just conservative.
    *out = LogSharedRead(s, var.get());
    return Status::OK();
  }
  *out = LogSharedRead(s, var.get());
  return Status::OK();
}

Status Msp::SharedWriteImpl(Session* s, const std::string& name,
                            ByteView value) {
  auto var = GetOrCreateSharedVar(name);
  if (config_.mode != RecoveryMode::kLogBased) {
    audit::SharedUniqueLock lk(var->rw);
    var->value = Bytes(value);
    return Status::OK();
  }
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  audit::SharedUniqueLock lk(var->rw);
  return LogSharedWrite(s, var.get(), value);
}

Status Msp::SharedUpdateImpl(Session* s, const std::string& name,
                             const std::function<Bytes(const Bytes&)>& fn,
                             Bytes* out) {
  auto var = GetOrCreateSharedVar(name);
  if (config_.mode != RecoveryMode::kLogBased) {
    audit::SharedUniqueLock lk(var->rw);
    var->value = fn(var->value);
    if (out) *out = var->value;
    return Status::OK();
  }
  if (SessionIsOrphan(s)) return Status::Orphan("session " + s->id);

  // Fused read + write under ONE lock hold: atomic read-modify-write. The
  // log sees the same two records a ReadShared/WriteShared pair produces
  // (value-logged read, chained write), so recovery is unchanged; only the
  // lock scope differs.
  audit::SharedUniqueLock lk(var->rw);
  if (DvIsOrphan(var->dv)) {
    env_->stats().orphans_detected.fetch_add(1);
    MSPLOG_RETURN_IF_ERROR(UndoSharedVariable(var.get()));
  }
  Bytes newval = fn(LogSharedRead(s, var.get()));
  MSPLOG_RETURN_IF_ERROR(LogSharedWrite(s, var.get(), newval));
  if (out) *out = std::move(newval);
  return Status::OK();
}

Status Msp::UndoSharedVariable(SharedVariable* var) {
  // Follow the backward chain of write records to the most recent
  // non-orphan value (§4.2 — undo recovery). The chain breaks at
  // shared-variable checkpoints, whose values are never orphans.
  uint64_t lsn = var->last_write_lsn;
  while (lsn != 0) {
    LogRecord rec;
    Status st = log_->ReadRecordAt(lsn, &rec);
    if (!st.ok()) return st;
    if (rec.type == LogRecordType::kSharedVarCheckpoint) {
      var->value = rec.payload;
      var->dv.Clear();
      var->state_number = lsn;
      var->last_write_lsn = lsn;
      return Status::OK();
    }
    if (rec.type != LogRecordType::kSharedWrite) {
      return Status::Corruption("write chain points at " +
                                std::string(LogRecordTypeName(rec.type)));
    }
    if (!DvIsOrphan(rec.dv)) {
      var->value = rec.payload;
      var->dv = rec.dv;
      var->state_number = lsn;
      var->last_write_lsn = lsn;
      return Status::OK();
    }
    lsn = rec.prev_lsn;
  }
  // Chain exhausted: every logged value was an orphan.
  var->value = var->initial_value;
  var->dv.Clear();
  var->state_number = 0;
  var->last_write_lsn = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Outgoing calls
// ---------------------------------------------------------------------------

Status Msp::CallRoundTrip(const std::string& dest, const Message& req,
                          bool check_orphan_reply, Message* out,
                          uint32_t max_sends, const Bytes* dv_wire) {
  if (max_sends == 0) max_sends = kMaxSendRounds;
  // Encoded once, resent verbatim on loss. `dv_wire`, when set, splices the
  // caller's pre-encoded DV (zero-copy piggybacking).
  Bytes wire;
  req.AppendTo(&wire, dv_wire);
  auto key = std::make_pair(req.session_id, req.seqno);
  uint32_t sends = 0;
  while (sends < max_sends) {
    auto pc = std::make_shared<PendingCall>();
    {
      audit::LockGuard lk(calls_mu_);
      pending_calls_[key] = pc;
    }
    network_->Send(config_.id, dest, wire);
    ++sends;
    bool got = false;
    bool failed = false;
    bool done = false;
    Message reply;
    {
      // Snapshot under pc->mu: the dispatch thread can deliver a late reply
      // right after a timed-out wait, racing unlocked reads of done/reply.
      audit::UniqueLock lk(pc->mu);
      got = pc->cv.wait_for(
          lk, env_->RealTimeout(config_.call_resend_timeout_ms), [&] {
            pc->mu.AssertHeld();
            return pc->done || pc->failed;
          });
      failed = pc->failed;
      done = pc->done;
      if (done) reply = std::move(pc->reply);
    }
    {
      audit::LockGuard lk(calls_mu_);
      auto it = pending_calls_.find(key);
      if (it != pending_calls_.end() && it->second == pc) {
        pending_calls_.erase(it);
      }
    }
    if (state_.load() == State::kCrashed || failed) {
      return Status::Crashed("MSP crashed during call");
    }
    if (!got || !done) continue;  // timeout: resend
    Message& m = reply;
    if (m.reply_code == ReplyCode::kBusy) {
      env_->SleepModelMs(config_.busy_backoff_ms);
      continue;
    }
    if (m.reply_code == ReplyCode::kOrphanNotice) {
      // The callee proved our request carried a lost dependency: absorb the
      // recovered state number and surface orphan-ness to the session.
      {
        audit::LockGuard lk(table_mu_);
        recovered_table_.Record(m.payload, m.rec_epoch, m.rec_sn);
      }
      return Status::Orphan("orphan notice from " + dest);
    }
    if (check_orphan_reply && m.has_dv && DvIsOrphan(m.dv)) {
      // Fig. 7: an orphan message is discarded; the sender recovers and
      // resends. Keep resending our request until a clean reply arrives.
      env_->stats().orphans_detected.fetch_add(1);
      env_->SleepModelMs(config_.busy_backoff_ms);
      continue;
    }
    *out = std::move(m);
    return Status::OK();
  }
  return Status::TimedOut("no reply from " + dest + " after " +
                          std::to_string(sends) + " sends");
}

Status Msp::OutgoingCallImpl(Session* s, const std::string& target,
                             const std::string& method, ByteView arg,
                             Bytes* reply, const obs::SpanContext& parent_span) {
  const bool log_based = config_.mode == RecoveryMode::kLogBased;
  if (log_based && SessionIsOrphan(s)) {
    return Status::Orphan("session " + s->id);
  }

  auto& o = s->outgoing[target];
  if (o.session_id.empty()) {
    o.target = target;
    // Deterministic id: replay after a crash re-creates the same outgoing
    // session, so the server-side session and its seqnos keep working.
    o.session_id = config_.id + "/" + s->id + ">" + target;
    o.next_seqno = 1;
  }
  uint64_t seqno = o.next_seqno;

  Message req;
  req.type = MessageType::kRequest;
  req.sender = config_.id;
  req.session_id = o.session_id;
  req.seqno = seqno;
  req.method = method;
  req.payload = Bytes(arg);
  // Propagate the caller's trace: the callee's request span becomes a child
  // of this request's span, linking span trees across MSPs.
  req.trace_id = parent_span.trace_id;
  req.parent_span_id = parent_span.span_id;

  const bool intra = IntraDomain(target);
  const Bytes* dv_wire = nullptr;
  if (log_based) {
    MSPLOG_RETURN_IF_ERROR(ApplySendRule(s, intra, "call to ", target,
                                         parent_span, &req, &dv_wire));
  }

  Message rep;
  MSPLOG_RETURN_IF_ERROR(CallRoundTrip(target, req,
                                       /*check_orphan_reply=*/log_based, &rep,
                                       /*max_sends=*/0, dv_wire));

  if (log_based) {
    // §3.1: log the nondeterministic reply receive (with its DV if the
    // reply came from inside the domain).
    LogRecord rec;
    rec.type = LogRecordType::kReplyReceive;
    rec.target = target;
    rec.seqno = seqno;
    rec.payload = rep.payload;
    rec.aux = static_cast<uint8_t>(rep.reply_code);
    if (rep.has_dv) {
      rec.has_dv = true;
      rec.dv = rep.dv;
    }
    AppendSessionRecord(s, std::move(rec));
    if (rep.has_dv) s->dv.Merge(rep.dv);
    PublishDv(s);
  }
  o.next_seqno = seqno + 1;
  *reply = rep.payload;
  if (rep.reply_code == ReplyCode::kAppError) {
    return Status::Aborted("remote application error: " + *reply);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Distributed log flush (§3.1)
// ---------------------------------------------------------------------------

Status Msp::DistributedFlush(const DependencyVector& dv,
                             const obs::SpanContext& span) {
  // The flush is its own child span under the stalled request span, so the
  // trace shows the log-flush stall as a distinct stage.
  obs::SpanContext fspan;
  if (span.valid()) {
    fspan.trace_id = span.trace_id;
    fspan.span_id = obs::NextSpanId();
    fspan.parent_span_id = span.span_id;
  }
  double t0 = env_->NowModelMs();
  env_->tracer().Record(obs::TraceEventType::kDistFlushStart, t0, config_.id,
                        /*session=*/"", /*seqno=*/0,
                        "dv_entries=" + std::to_string(dv.entry_count()),
                        fspan);
  Status st = DistributedFlushImpl(dv, fspan);
  double t1 = env_->NowModelMs();
  hist_flush_wait_ms_->Record(t1 - t0);
  env_->tracer().Record(obs::TraceEventType::kDistFlushEnd, t1, config_.id,
                        /*session=*/"", /*seqno=*/0,
                        st.ok() ? "" : st.ToString(), fspan);
  return st;
}

Status Msp::DistributedFlushImpl(const DependencyVector& dv,
                                 const obs::SpanContext& span) {
  env_->stats().distributed_flushes.fetch_add(1);

  // A leg of an epoch the peer has ended is settled by the state number the
  // peer recovered to, once the local table knows it: at or below it the
  // leg is durable, above it the leg was lost. Only a leg whose epoch the
  // table does not know yet goes to the peer.
  std::vector<std::pair<MspId, StateId>> legs;
  for (const auto& [msp, id] : dv.entries()) {
    if (msp == config_.id) continue;
    if (!IntraDomain(msp)) continue;  // cross-domain deps never exist
    std::optional<uint64_t> rsn;
    {
      audit::LockGuard lk(table_mu_);
      rsn = recovered_table_.RecoveredSn(msp, id.epoch);
    }
    if (!rsn) {
      legs.emplace_back(msp, id);
    } else if (id.sn > *rsn) {
      env_->stats().orphans_detected.fetch_add(1);
      env_->tracer().Record(obs::TraceEventType::kOrphanDetected,
                            env_->NowModelMs(), config_.id, /*session=*/"",
                            /*seqno=*/0, "flush_leg=" + msp);
      return Status::Orphan("flush failed at " + msp);
    }
  }
  // Submit the peer legs first so they run in parallel with the local one.
  // The aggregator decides, under one lock pass per leg, whether it is
  // already covered by the durable watermark (skip), rides an in-flight
  // request (join), accumulates behind one (queue), or launches a flight.
  auto call = std::make_shared<FlushCall>();
  std::vector<std::shared_ptr<FlushWaiter>> waiters;
  for (const auto& [msp, id] : legs) {
    auto w = flush_agg_->Submit(msp, id, call, span);
    if (w) waiters.push_back(std::move(w));
  }

  auto abandon_unsettled = [&] {
    for (auto& w : waiters) {
      bool settled;
      {
        audit::LockGuard lk(call->mu);
        settled = w->settled;
      }
      if (!settled) flush_agg_->Abandon(w);
    }
  };

  // Local leg (skipped when the durable watermark already covers it).
  auto self = dv.Get(config_.id);
  if (self && self->epoch == epoch_.load() && log_ &&
      self->sn < log_->end_lsn() && self->sn >= log_->durable_lsn()) {
    Status st = log_->FlushUpTo(self->sn);
    if (!st.ok()) {
      abandon_unsettled();
      return st;
    }
  }

  // One deadline-driven wait across ALL legs (no per-leg serialization): a
  // slow first peer no longer delays settled later legs' bookkeeping. Wake
  // when every leg settled or any settled leg failed; after a timeout round
  // with no settlement, the aggregator resends each stalled flight at most
  // once per round and eventually times the flight out (kMaxSendRounds). The
  // peer may be mid-crash; once it recovers it either confirms durability
  // or reports the recovered state number that proves we are an orphan.
  while (!waiters.empty()) {
    bool all_settled;
    bool fatal;
    {
      audit::UniqueLock lk(call->mu);
      call->cv.wait_for(lk, env_->RealTimeout(config_.flush_timeout_ms), [&] {
        call->mu.AssertHeld();
        return call->unsettled == 0 || call->fatal;
      });
      all_settled = call->unsettled == 0;
      fatal = call->fatal;
    }
    if (all_settled || fatal || state_.load() == State::kCrashed) break;
    for (auto& w : waiters) flush_agg_->OnWaitTimeout(w);
  }

  // Harvest outcomes. Precedence mirrors the old per-leg loop: crash wins,
  // then orphan-hood (recording every peer's recovered state number), then
  // timeout. Legs still unsettled after an early exit are abandoned — their
  // outcome no longer matters to this call.
  bool crashed = state_.load() == State::kCrashed;
  MspId orphan_peer;
  MspId timeout_peer;
  for (auto& w : waiters) {
    bool settled, ok, t_out, w_crashed;
    uint32_t oe;
    uint64_t osn;
    {
      audit::LockGuard lk(call->mu);
      settled = w->settled;
      ok = w->ok;
      t_out = w->timed_out;
      w_crashed = w->crashed;
      oe = w->orphan_epoch;
      osn = w->orphan_sn;
    }
    if (!settled) {
      flush_agg_->Abandon(w);
      continue;
    }
    if (ok) continue;
    if (w_crashed) {
      crashed = true;
    } else if (oe != 0) {
      // The peer's recovery provably lost our dependency: orphan.
      {
        audit::LockGuard lk(table_mu_);
        recovered_table_.Record(w->peer, oe, osn);
      }
      env_->stats().orphans_detected.fetch_add(1);
      env_->tracer().Record(obs::TraceEventType::kOrphanDetected,
                            env_->NowModelMs(), config_.id,
                            /*session=*/"", /*seqno=*/0,
                            "flush_leg=" + w->peer);
      if (orphan_peer.empty()) orphan_peer = w->peer;
    } else if (t_out && timeout_peer.empty()) {
      timeout_peer = w->peer;
    }
  }
  if (crashed) return Status::Crashed("MSP crashed during distributed flush");
  if (!orphan_peer.empty()) return Status::Orphan("flush failed at " + orphan_peer);
  if (!timeout_peer.empty()) {
    return Status::TimedOut("distributed flush to " + timeout_peer);
  }
  return Status::OK();
}

void Msp::SendFlushReply(const std::string& to, uint64_t flush_id, bool ok,
                         uint32_t rec_epoch, uint64_t rec_sn) {
  Message r;
  r.type = MessageType::kFlushReply;
  r.sender = config_.id;
  r.flush_id = flush_id;
  r.flush_ok = ok;
  r.rec_epoch = rec_epoch;
  r.rec_sn = rec_sn;
  network_->Send(config_.id, to, r.Encode());
}

void Msp::HandleFlushRequest(Message m) {
  uint32_t cur_epoch = epoch_.load();
  if (m.epoch == cur_epoch && log_) {
    if (m.flush_sn < log_->durable_lsn()) {
      // Already durable: no write needed.
      SendFlushReply(m.sender, m.flush_id, /*ok=*/true, 0, 0);
    } else if (m.flush_sn < log_->end_lsn()) {
      if (config_.coalesce_distributed_flushes && inbound_flush_) {
        // Group commit: concurrent requests drain through one batching
        // loop — a single FlushUpTo to the batch maximum answers them all.
        inbound_flush_->Enqueue({m.sender, m.flush_id, m.flush_sn});
      } else if (log_->FlushUpTo(m.flush_sn).ok()) {
        SendFlushReply(m.sender, m.flush_id, /*ok=*/true, 0, 0);
      }
      // FlushUpTo failure means we are crashing mid-flush. NEVER report a
      // failure for the current epoch — that would amount to announcing a
      // recovered state number for an epoch that has not ended, poisoning
      // the requester's table. Stay silent; the requester retries and our
      // recovery will give the authoritative answer.
    }
    // else: an sn from our current epoch that we do not know (should not
    // happen); drop rather than guess.
    return;
  }
  if (m.epoch < cur_epoch) {
    // The epoch already ended: the sn is durable iff it survived recovery.
    bool ok;
    uint32_t rec_epoch = 0;
    uint64_t rec_sn = 0;
    {
      audit::LockGuard lk(table_mu_);
      auto rsn = recovered_table_.RecoveredSn(config_.id, m.epoch);
      ok = rsn.has_value() && *rsn >= m.flush_sn;
      if (!ok) {
        // Authoritative failure: the epoch ended at rec_sn < flush_sn.
        rec_epoch = m.epoch;
        rec_sn = rsn.value_or(0);
      }
    }
    SendFlushReply(m.sender, m.flush_id, ok, rec_epoch, rec_sn);
    return;
  }
  // Request from our future (stale routing): drop.
}

void Msp::HandleFlushReply(Message m) { flush_agg_->HandleReply(m); }

size_t Msp::PendingFlushLegsForTest() const {
  return flush_agg_->WaiterCountForTest();
}

size_t Msp::InFlightFlushesForTest() const {
  return flush_agg_->InFlightForTest();
}

void Msp::HandleReplyMsg(Message m) {
  std::shared_ptr<PendingCall> pc;
  {
    audit::LockGuard lk(calls_mu_);
    auto it = pending_calls_.find({m.session_id, m.seqno});
    if (it == pending_calls_.end()) return;  // duplicate/stale reply
    pc = it->second;
  }
  {
    audit::LockGuard lk(pc->mu);
    if (pc->done) return;
    pc->reply = std::move(m);
    pc->done = true;
  }
  pc->cv.notify_all();
}

void Msp::HandleRecoveryAnnounce(Message m) {
  {
    audit::LockGuard lk(table_mu_);
    recovered_table_.Record(m.sender, m.rec_epoch, m.rec_sn);
  }
  if (config_.mode == RecoveryMode::kLogBased && log_) {
    // Persist the knowledge (§3.1: "Other processes log and remember this
    // recovered state number").
    LogRecord rec;
    rec.type = LogRecordType::kRecoveredState;
    rec.peer = m.sender;
    rec.peer_epoch = m.rec_epoch;
    rec.peer_recovered_sn = m.rec_sn;
    log_->Append(rec);
  }
  // §4.1: idle sessions are checked now; busy sessions at the next
  // interception point (their worker picks the flag up between requests).
  std::vector<std::shared_ptr<Session>> to_arm;
  {
    audit::LockGuard lk(sessions_mu_);
    for (auto& [id, s] : sessions_) {
      if (s->ended) continue;
      s->needs_orphan_check = true;
      if (!s->worker_active && !s->recovering) {
        s->worker_active = true;
        to_arm.push_back(s);
      }
    }
  }
  for (auto& s : to_arm) {
    pool_->Submit([this, s] { SessionWorker(s); });
  }
}

// ---------------------------------------------------------------------------
// Orphan predicates
// ---------------------------------------------------------------------------

bool Msp::DvIsOrphan(const DependencyVector& dv) const {
  audit::LockGuard lk(table_mu_);
  return recovered_table_.IsOrphanDv(dv);
}

DependencyVector Msp::MspWideDv(const Session* self) const {
  // Another session's live DV belongs to its owner thread, which may be
  // rewriting it right now (a replay clears it); only its published copy,
  // guarded by the session-table mutex, is safe to read here.
  DependencyVector all = self->dv;
  audit::LockGuard lk(sessions_mu_);
  for (const auto& [id, sess] : sessions_) {
    if (sess.get() != self && !sess->ended) all.Merge(sess->published_dv);
  }
  return all;
}

DependencyVector Msp::PessimisticFlushDv(const Session* s) const {
  DependencyVector dv = config_.per_session_dv ? s->dv : MspWideDv(s);
  if (s->last_shared_write_lsn != 0) {
    dv.Raise(config_.id, StateId{epoch_.load(), s->last_shared_write_lsn});
  }
  return dv;
}

void Msp::PublishDv(Session* s) {
  if (config_.per_session_dv) return;
  audit::LockGuard lk(sessions_mu_);
  s->published_dv = s->dv;
}

bool Msp::SessionIsOrphan(const Session* s) const {
  if (!config_.per_session_dv) {
    // §3.2 strawman: one DV for the whole MSP — if ANY session carries an
    // orphan dependency, every session is considered orphan and rolls back.
    return DvIsOrphan(MspWideDv(s));
  }
  return DvIsOrphan(s->dv);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void Msp::QuiesceSession(Session* s) const {
  // Session fields are owned by the worker (or recovery) thread currently
  // draining the session, and that thread can still be running its epilogue
  // after the client already has its reply. Both worker_active and
  // recovering are cleared under sessions_mu_, so observing them false here
  // orders every owner-thread write before the caller's access.
  while (true) {
    {
      audit::LockGuard lk(sessions_mu_);
      if (!s->worker_active && !s->recovering && s->pending_requests.empty())
        return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

StatusOr<Bytes> Msp::PeekSessionVar(const std::string& session_id,
                                    const std::string& var) const {
  auto s = GetSession(session_id);
  if (!s) return Status::NotFound("no session " + session_id);
  QuiesceSession(s.get());
  auto it = s->vars.find(var);
  if (it == s->vars.end()) return Status::NotFound("no var " + var);
  return it->second;
}

StatusOr<Bytes> Msp::PeekSharedValue(const std::string& name) const {
  std::shared_ptr<SharedVariable> v;
  {
    audit::LockGuard lk(vars_mu_);
    auto it = shared_vars_.find(name);
    if (it == shared_vars_.end()) return Status::NotFound("no shared " + name);
    v = it->second;
  }
  audit::SharedLock vlk(v->rw);
  return v->value;
}

StatusOr<uint64_t> Msp::PeekNextExpectedSeqno(
    const std::string& session_id) const {
  auto s = GetSession(session_id);
  if (!s) return Status::NotFound("no session " + session_id);
  QuiesceSession(s.get());
  return s->next_expected_seqno;
}

std::vector<uint64_t> Msp::PeekPositionStream(
    const std::string& session_id) const {
  auto s = GetSession(session_id);
  if (!s) return {};
  QuiesceSession(s.get());
  return s->positions.All();
}

bool Msp::HasSession(const std::string& session_id) const {
  return GetSession(session_id) != nullptr;
}

void Msp::InjectDvRegressionForTest(const std::string& session_id) {
  auto s = GetSession(session_id);
  if (!s) return;
  QuiesceSession(s.get());
  std::optional<StateId> self = s->dv.Get(config_.id);
  if (!self || self->sn == 0) return;
  // Silently drop the self entry back one LSN, simulating a bug that loses a
  // logged dependency. The dv-monotonic check fires on the next request.
  s->dv.Set(config_.id, StateId{self->epoch, self->sn - 1});
}

size_t Msp::SessionCount() const {
  audit::LockGuard lk(sessions_mu_);
  return sessions_.size();
}

RecoveredStateTable Msp::SnapshotRecoveredTable() const {
  audit::LockGuard lk(table_mu_);
  return recovered_table_;
}

obs::FlightSnapshot Msp::BuildFlightSnapshot() const {
  obs::FlightSnapshot snap;
  snap.statusz_json = DumpStatusz();
  {
    audit::LockGuard lk(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      if (!s->ended) snap.inflight_sessions.push_back(id);
    }
  }
  if (log_) {
    const LogExtents x = log_->Extents();  // one consistent snapshot
    snap.log_end_lsn = x.end_lsn;
    snap.log_durable_lsn = x.durable_lsn;
    snap.log_reclaimed_lsn = x.reclaimed_lsn;
    snap.log_archived_lsn = x.archived_lsn;
  }
  return snap;
}

std::string Msp::DumpStatusz() const {
  const char* state_name = "?";
  switch (state_.load()) {
    case State::kStopped: state_name = "stopped"; break;
    case State::kRecovering: state_name = "recovering"; break;
    case State::kRunning: state_name = "running"; break;
    case State::kCrashed: state_name = "crashed"; break;
  }
  obs::Json out;
  out.Add("id", config_.id)
      .Add("state", state_name)
      .Add("epoch", epoch_.load())
      .Add("model_ms", env_->NowModelMs());

  // Session occupancy. Only queue/ownership flags are touched — those are
  // the fields sessions_mu_ actually guards, so this is safe while workers
  // are mutating session bodies.
  {
    uint64_t queued = 0, active = 0, recovering = 0, ended = 0;
    audit::LockGuard lk(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      queued += s->pending_requests.size();
      if (s->worker_active) ++active;
      if (s->recovering) ++recovering;
      if (s->ended) ++ended;
    }
    out.Add("sessions", obs::Json()
                            .Add("count", sessions_.size())
                            .Add("queued_requests", queued)
                            .Add("active_workers", active)
                            .Add("recovering", recovering)
                            .Add("ended", ended));
  }

  // Log extents (absent outside kLogBased or before Start). One Extents()
  // snapshot — the former end/durable/reclaimed triple-read could tear.
  if (log_) {
    const LogExtents x = log_->Extents();
    out.Add("log", obs::Json()
                       .Add("end_lsn", x.end_lsn)
                       .Add("durable_lsn", x.durable_lsn)
                       .Add("reclaimed_lsn", x.reclaimed_lsn)
                       .Add("archived_lsn", x.archived_lsn));
  }

  {
    audit::LockGuard lk(table_mu_);
    out.Add("recovered_table_entries", recovered_table_.entries().size());
  }
  {
    // Every recovery starts a new epoch, so the epoch counts them. Only the
    // outage view goes in: each Crash() freezes this dump into its bundle.
    audit::LockGuard lk(timeline_mu_);
    out.Add("recoveries", last_recovery_timeline_.epoch)
        .AddRaw("last_outage_report",
                 last_recovery_timeline_.Outage().ToJson());
  }
  out.Add("crash_generation", crash_generation_.load());
  {
    // "Uptime since last recovery": model ms since the last Start()
    // finished; 0 while down or before the first start.
    double up = last_start_end_ms_.load(std::memory_order_relaxed);
    out.Add("uptime_since_recovery_ms",
            (up > 0 && state_.load() == State::kRunning)
                ? env_->NowModelMs() - up
                : 0.0);
  }
  out.Add("requests", ctr_own_requests_->Value());

  // Distributed-flush group commit.
  {
    obs::MetricsRegistry& m = env_->metrics();
    obs::Json flush;
    for (const char* name :
         {"legs_requested", "legs_coalesced", "messages_saved",
          "watermark_skips", "requests_sent", "peer_flushes_saved"}) {
      flush.Add(name, m.GetCounter(std::string("flush.") + name, config_.id)
                          ->Value());
    }
    flush.Add("in_flight", flush_agg_->InFlightForTest())
        .Add("pending_legs", flush_agg_->WaiterCountForTest())
        .Add("flight_batch",
             m.GetHistogram("flush.flight_batch", config_.id)->Snap());
    out.Add("flush", flush);
  }

  const std::pair<const char*, const obs::Histogram*> hists[] = {
      {"queue_wait_ms", hist_queue_wait_ms_},
      {"execute_ms", hist_execute_ms_},
      {"flush_wait_ms", hist_flush_wait_ms_},
      {"request_ms", hist_request_ms_},
      {"replay_ms", hist_replay_ms_}};
  obs::Json histograms;
  for (const auto& [name, h] : hists) histograms.Add(name, h->Snap());
  return out.Add("histograms", histograms).Str();
}

}  // namespace msplog
