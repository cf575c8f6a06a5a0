// Msp — a recoverable Middleware Server Process, the system of the paper.
//
// An Msp serves client-initiated requests with a thread pool, maintains
// private per-session state and shared in-memory state, and — in
// RecoveryMode::kLogBased — makes all of it recoverable through:
//
//   * locally optimistic logging (§3.1): DV-tagged optimistic messages
//     inside the service domain, pessimistic distributed log flushes across
//     domain boundaries and toward end clients;
//   * per-session DVs and state numbers (§3.2), so sessions are independent
//     recovery units inside the crash unit that is the MSP;
//   * value logging with backward write chains for shared variables (§3.3);
//   * independent session / shared-variable checkpoints plus fuzzy MSP
//     checkpoints anchored ARIES-style (§3.4);
//   * crash recovery with a single analysis scan followed by parallel
//     session replay, and lazy orphan recovery driven by recovery
//     broadcasts (§4).
//
// Crash semantics: Crash() discards everything volatile — the log buffer,
// position buffers, sessions, shared-variable values, pending calls — and
// unregisters the network endpoint. Start() afterwards re-runs crash
// recovery from the durable log, exactly as a restarted OS process would.
//
// The other RecoveryModes run the paper's §5 baselines (NoLog, Psession,
// StateServer) through the same request path, which skips every log-based
// step for them; Psession and StateServer keep each session's state in a
// SessionStore (baseline/session_store.h) between requests.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/status.h"
#include "log/log_anchor.h"
#include "log/log_file.h"
#include "msp/flush_aggregator.h"
#include "msp/msp_config.h"
#include "msp/service_context.h"
#include "msp/service_domain.h"
#include "msp/session.h"
#include "msp/shared_variable.h"
#include "msp/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/recovery_timeline.h"
#include "recovery/recovered_state_table.h"
#include "rpc/message.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {

class ExecContext;
class ReplayCursor;
class RecoveryCoordinator;
class SessionStore;
struct ScanImage;

/// Typed designator for Msp::ForceCheckpoint — the one entry point behind
/// which the three checkpoint kinds of §3.4 (whole-MSP fuzzy checkpoint,
/// per-session checkpoint, shared-variable checkpoint) now live.
struct CheckpointTarget {
  enum class Kind { kMsp, kSession, kSharedVar };
  Kind kind = Kind::kMsp;
  /// Session id (kSession) or shared-variable name (kSharedVar).
  std::string name;

  static CheckpointTarget Msp() { return {Kind::kMsp, ""}; }
  static CheckpointTarget Session(std::string id) {
    return {Kind::kSession, std::move(id)};
  }
  static CheckpointTarget SharedVar(std::string var) {
    return {Kind::kSharedVar, std::move(var)};
  }
};

class Msp {
 public:
  Msp(SimEnvironment* env, SimNetwork* network, SimDisk* disk,
      DomainDirectory* directory, MspConfig config);
  ~Msp();

  Msp(const Msp&) = delete;
  Msp& operator=(const Msp&) = delete;

  // ---- setup (before Start) ----
  void RegisterMethod(const std::string& name, ServiceMethod fn);
  void RegisterSharedVariable(const std::string& name, Bytes initial);

  // ---- lifecycle ----
  /// Boot the server. If a durable log exists (kLogBased), runs crash
  /// recovery (§4.3) before accepting traffic; sessions then recover in
  /// parallel while new sessions are served. A start that fails tears down
  /// whatever it built and leaves the server stopped, so it can be retried.
  Status Start();

  /// Graceful stop: flushes the log, joins all threads, unregisters.
  void Shutdown();

  /// Abrupt failure: volatile state is lost; the durable log survives.
  void Crash();

  bool running() const { return state_.load() == State::kRunning; }
  uint32_t epoch() const { return epoch_.load(); }
  const MspConfig& config() const { return config_; }
  SimEnvironment* env() const { return env_; }
  LogFile* log() const { return log_.get(); }

  // ---- explicit checkpoint triggers (also driven by the daemon) ----
  /// Force a checkpoint of `target` now: the whole MSP (fuzzy, §3.4), one
  /// session, or one shared variable.
  Status ForceCheckpoint(const CheckpointTarget& target);

  // ---- crash-injection & instrumentation hooks ----
  /// Invoked after each successfully processed request (not during replay).
  using RequestHook =
      std::function<void(Msp*, const std::string& session_id, uint64_t seqno)>;
  void SetAfterRequestHook(RequestHook hook) {
    after_request_hook_ = std::move(hook);
  }

  /// Test hook for the protocol auditor: silently lower `session_id`'s own
  /// DV entry, simulating a dependency-dropping bug. The dv-monotonic
  /// invariant check must trip on the session's next request.
  void InjectDvRegressionForTest(const std::string& session_id);

  // ---- introspection for tests and benchmarks ----
  StatusOr<Bytes> PeekSessionVar(const std::string& session_id,
                                 const std::string& var) const;
  StatusOr<Bytes> PeekSharedValue(const std::string& name) const;
  StatusOr<uint64_t> PeekNextExpectedSeqno(const std::string& session_id) const;
  std::vector<uint64_t> PeekPositionStream(const std::string& session_id) const;
  bool HasSession(const std::string& session_id) const;
  size_t SessionCount() const;
  RecoveredStateTable SnapshotRecoveredTable() const;

  /// Unsettled distributed-flush legs (joined to flights + queued) held by
  /// the flush aggregator; 0 after a crash proves no leaked flush state.
  size_t PendingFlushLegsForTest() const;
  /// In-flight coalesced flush requests (one per open flight).
  size_t InFlightFlushesForTest() const;

  /// The record of the most recent recovery (every Start() runs one):
  /// analysis-scan duration and volume, every session replay with what
  /// rebuilt the session, parallelism achieved, orphan-recovery events
  /// observed since it started, and — after a crash — the flight bundle it
  /// joined. Its Outage() is the outage view: per-session fate (replayed /
  /// orphaned / never-logged), time-to-servable and MTTR percentiles;
  /// invalid after a graceful restart, which joins no crash.
  obs::RecoveryTimeline LastRecoveryTimeline() const;

  /// Crashes this Msp has suffered (Crash() calls; graceful Shutdown does
  /// not count). Monotonic across restarts — generation stamps the flight
  /// recorder bundles.
  uint64_t crash_generation() const { return crash_generation_.load(); }

  /// One-call structured snapshot of the server ("/statusz"): identity,
  /// lifecycle state, epoch, session/queue occupancy, log extents, and this
  /// server's own request count, flush counters and latency-histogram
  /// quantiles. JSON; safe to call from any thread.
  std::string DumpStatusz() const;

 private:
  friend class ExecContext;
  friend class RecoveryCoordinator;

  enum class State { kStopped, kRecovering, kRunning, kCrashed };

  /// Block until no worker or recovery thread owns `s` (test-hook helper;
  /// establishes happens-before with the owner thread's last writes).
  void QuiesceSession(Session* s) const;

  /// Start() body after the state check: builds the log, pools and store,
  /// runs crash recovery and opens the server.
  Status StartLocked() REQUIRES(lifecycle_mu_);

  /// Crash/stop body; caller holds lifecycle_mu_. `is_crash` distinguishes
  /// a simulated fault (bumps the crash generation, freezes a flight
  /// recorder bundle and keeps its CrashFacts for the next recovery) from a
  /// graceful Shutdown teardown.
  void CrashLocked(bool is_crash) REQUIRES(lifecycle_mu_);

  /// Snapshot provider registered with the environment's flight recorder:
  /// statusz + in-flight session set + durable log extent, captured at freeze
  /// time (i.e. from inside CrashLocked or an invariant violation hook).
  obs::FlightSnapshot BuildFlightSnapshot() const;

  // ---- threads ----
  void DispatchLoop();
  void CheckpointDaemonLoop();
  void SessionWorker(std::shared_ptr<Session> s);

  // ---- message handling ----
  void HandleRequestMsg(Message m);
  void HandleReplyMsg(Message m);
  void HandleFlushRequest(Message m);
  void HandleFlushReply(Message m);
  void HandleRecoveryAnnounce(Message m);
  void SendBusyReply(const Message& req);
  void SendFlushReply(const std::string& to, uint64_t flush_id, bool ok,
                      uint32_t rec_epoch, uint64_t rec_sn);

  // ---- request processing ----
  /// Every RecoveryMode's request path; the baselines skip its log-based
  /// steps and keep their session state in store_.
  Status ProcessRequest(Session* s, const Message& m,
                        const obs::SpanContext& span);
  Status InvokeMethod(const std::string& method, ExecContext* ctx,
                      const Bytes& arg, Bytes* result);
  Status SendReply(Session* s, ReplyCode code, const Bytes& payload,
                   uint64_t seqno, const obs::SpanContext& span = {});
  /// Fig. 7's send rule for an output of `s` (log-based mode): inside the
  /// domain (`intra`) attach the session's DV to `m`, or point `*dv_wire` at
  /// its cached encoding; across it, flush PessimisticFlushDv(s) first.
  /// `what` + `dest` name the output in the WAL-before-send audit.
  Status ApplySendRule(Session* s, bool intra, const char* what,
                       const std::string& dest, const obs::SpanContext& span,
                       Message* m, const Bytes** dv_wire);

  // ---- normal-execution primitives (called via ExecContext) ----
  uint64_t AppendSessionRecord(Session* s, LogRecord rec);
  /// Fig. 8, read: value-log `var`'s value as a session record and merge
  /// the variable's DV into the session's. Returns the value read. Caller
  /// holds `var->rw` (shared or unique).
  const Bytes& LogSharedRead(Session* s, SharedVariable* var);
  /// Fig. 8, write: log the write record (writer's DV, backward chain),
  /// install `value` in `var`, and checkpoint the variable at its write
  /// threshold. Caller holds `var->rw` unique.
  Status LogSharedWrite(Session* s, SharedVariable* var, ByteView value);
  /// Replay consumed `rec`: the session's state number, own DV entry and
  /// DV move as they did when `rec` was logged.
  void AdoptReplayedRecord(Session* s, const LogRecord& rec);
  Status SharedReadImpl(Session* s, const std::string& name, Bytes* out);
  Status SharedWriteImpl(Session* s, const std::string& name, ByteView value);
  Status SharedUpdateImpl(Session* s, const std::string& name,
                          const std::function<Bytes(const Bytes&)>& fn,
                          Bytes* out);
  Status OutgoingCallImpl(Session* s, const std::string& target,
                          const std::string& method, ByteView arg,
                          Bytes* reply, const obs::SpanContext& parent_span = {});
  std::shared_ptr<SharedVariable> GetOrCreateSharedVar(const std::string& name);

  /// Send `req` to `dest` and await the matching reply, resending on loss
  /// and backing off on Busy. If `check_orphan_reply` is set, replies whose
  /// attached DV is an orphan are discarded (Fig. 7) and the wait continues.
  /// `max_sends` of 0 means kMaxSendRounds. `dv_wire`, when
  /// set, is the pre-encoded DV spliced into the wire image in place of
  /// `req.dv` (zero-copy piggybacking; `req.has_dv` must be true).
  Status CallRoundTrip(const std::string& dest, const Message& req,
                       bool check_orphan_reply, Message* out,
                       uint32_t max_sends = 0, const Bytes* dv_wire = nullptr);

  // ---- distributed log flush (§3.1) ----
  /// Timing/tracing wrapper around DistributedFlushImpl. `span` is the
  /// request span stalled on this flush; the flush records a child span.
  Status DistributedFlush(const DependencyVector& dv,
                          const obs::SpanContext& span = {});
  /// Submits the peer legs to the flush aggregator (skip/join/queue/launch
  /// decided per leg), flushes the local leg, then awaits every leg with a
  /// single deadline-driven wait on one condition variable.
  Status DistributedFlushImpl(const DependencyVector& dv,
                              const obs::SpanContext& span);

  // ---- orphan machinery ----
  bool SessionIsOrphan(const Session* s) const;
  /// Ablation (per_session_dv = false): the union of every live session's
  /// DV — the single process-wide vector of the §3.2 strawman. Reads the
  /// live DV of `self` only (the caller owns it) and the DVs the other
  /// sessions last published.
  DependencyVector MspWideDv(const Session* self) const;
  /// Ablation only: publish `s`'s DV to the MSP-wide union. Owner thread;
  /// a no-op with per-session DVs.
  void PublishDv(Session* s);
  /// The DV an output leaving the service domain must flush first: the
  /// session's DV (or the MSP-wide one), its own entry raised to cover the
  /// session's newest shared-variable write. Owner thread.
  DependencyVector PessimisticFlushDv(const Session* s) const;
  bool DvIsOrphan(const DependencyVector& dv) const;
  /// Roll `var` back along its backward write chain to the most recent
  /// non-orphan value (§4.2). Caller holds the variable's unique lock.
  Status UndoSharedVariable(SharedVariable* var);
  /// Write the EOS record and truncate the position stream (§4.1).
  void OrphanCut(Session* s, uint64_t orphan_lsn);

  // ---- checkpoints (§3.2–§3.4) ----
  Status TakeSessionCheckpoint(Session* s, const obs::SpanContext& span = {});
  Status TakeSharedVarCheckpoint(SharedVariable* var);
  /// `force_units` also force-checkpoints stale/uncheckpointed sessions and
  /// shared variables (§3.4); recovery passes false because peer flushes are
  /// not yet serviceable at that point.
  Status TakeMspCheckpoint(bool force_units);
  /// ForceCheckpoint bodies for the session / shared-variable kinds.
  Status ForceSessionCheckpointImpl(const std::string& session_id);
  Status ForceSharedVarCheckpointImpl(const std::string& name);

  // ---- recovery (§4) ----
  /// Thin wrapper over RecoveryCoordinator: analysis pass + open
  /// preparation. Session replay is NOT awaited — Start() kicks off the
  /// background drain and HandleRequestMsg admits sessions on demand.
  Status CrashRecovery();
  /// Replay loop handling repeated orphan-ness under multiple crashes.
  /// `from_crash` marks replays launched by crash recovery (vs lazy orphan
  /// recovery) in the recovery timeline.
  Status RecoverSessionReplay(Session* s, bool from_crash = false);
  /// One replay pass from the latest checkpoint along the position stream.
  /// Records inside `image` (the crash recovery's scanned range, or null)
  /// are parsed from memory instead of read from disk.
  /// `rep` accumulates the requests replayed over every pass, and gets
  /// this pass's provenance (the checkpoint initialized from and every
  /// request record consumed).
  Status ReplayOnce(Session* s, const ScanImage* image,
                    obs::RecoveryTimeline::SessionReplay* rep);
  /// Claim-and-replay one session (no-op if it already replayed or another
  /// replay owns it). `on_demand` marks admissions triggered by a live
  /// request (vs the background drain) in the recovery timeline.
  void SessionRecoveryTask(std::shared_ptr<Session> s, bool on_demand = false);

  // ---- helpers ----
  /// Charge model CPU time; serialized on the MSP's core when
  /// config.single_core_cpu is set.
  void ChargeCpu(double model_ms);
  bool IntraDomain(const std::string& other) const;
  std::shared_ptr<Session> GetSession(const std::string& id) const;

  SimEnvironment* env_;
  SimNetwork* network_;
  SimDisk* disk_;
  DomainDirectory* directory_;
  MspConfig config_;

  /// Serializes Start / Crash / Shutdown against each other (crash
  /// injection may fire while a previous restart is still in progress).
  audit::Mutex lifecycle_mu_{"msp.lifecycle"};
  std::atomic<State> state_{State::kStopped};
  std::atomic<uint32_t> epoch_{0};

  // Lifecycle substrate: (re)built in Start() before any worker thread
  // exists and torn down in Crash()/Shutdown() after quiesce, with the
  // cycles serialized by lifecycle_mu_ — so these handles are stable
  // whenever another thread can observe them.
  std::unique_ptr<LogFile> log_;             // audit:allow(guarded-by)
  LogAnchor anchor_;                         // audit:allow(guarded-by)
  std::unique_ptr<ThreadPool> pool_;         // audit:allow(guarded-by)
  std::unique_ptr<ThreadPool> control_pool_; // audit:allow(guarded-by)
  std::shared_ptr<Mailbox> mailbox_;         // audit:allow(guarded-by)
  std::thread dispatch_thread_;
  std::thread checkpoint_thread_;
  audit::Mutex cp_mu_{"msp.cp"};
  audit::CondVar cp_cv_;
  bool cp_stop_ GUARDED_BY(cp_mu_) = false;

  /// Guards the session *table* and the per-session scheduling flags
  /// (Session::pending_requests / worker_active / recovering /
  /// needs_orphan_check / needs_checkpoint / ended) — a cross-class guard
  /// the static analysis cannot express; the auditor's lock-order tracking
  /// still covers it at runtime.
  mutable audit::Mutex sessions_mu_{"msp.sessions"};
  std::map<std::string, std::shared_ptr<Session>> sessions_
      GUARDED_BY(sessions_mu_);

  mutable audit::Mutex vars_mu_{"msp.vars"};
  std::map<std::string, std::shared_ptr<SharedVariable>> shared_vars_
      GUARDED_BY(vars_mu_);

  /// Written only before Start() (RegisterMethod), read-only afterwards:
  /// no lock by design.
  std::map<std::string, ServiceMethod> methods_;  // audit:allow(guarded-by)

  mutable audit::Mutex table_mu_{"msp.table"};
  RecoveredStateTable recovered_table_ GUARDED_BY(table_mu_);

  struct PendingCall {
    audit::Mutex mu{"msp.pending"};
    audit::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool failed GUARDED_BY(mu) = false;
    Message reply GUARDED_BY(mu);
  };
  audit::Mutex calls_mu_{"msp.calls"};
  std::map<std::pair<std::string, uint64_t>, std::shared_ptr<PendingCall>>
      pending_calls_ GUARDED_BY(calls_mu_);

  /// Sender-side group commit for distributed-flush legs: per-peer durable
  /// watermark (skip), in-flight flight state (join/queue) and dispatch.
  /// Created once (internally locked); Reset() on Start, FailAll() on
  /// crash.
  std::unique_ptr<FlushAggregator> flush_agg_;  // audit:allow(guarded-by)
  /// Receiver-side group commit: concurrent kFlushRequests ride one
  /// LogFile::FlushUpTo. Rebuilt on every Start (binds the fresh log),
  /// before the dispatch thread that uses it exists.
  std::unique_ptr<InboundFlushCoalescer>
      inbound_flush_;  // audit:allow(guarded-by)

  /// Serializes MSP checkpoints.
  audit::Mutex msp_cp_mu_{"msp.msp_cp"};
  /// The single CPU core (config.single_core_cpu).
  audit::Mutex cpu_mu_{"msp.cpu"};

  /// Log extent as of the last MSP checkpoint. Atomic: written under
  /// msp_cp_mu_ (and in Start before threads exist) but read by the
  /// checkpoint daemon's staleness test without any lock.
  std::atomic<uint64_t> last_msp_cp_log_end_{0};
  /// Test instrumentation, installed before Start().
  RequestHook after_request_hook_;  // audit:allow(guarded-by)

  /// Record of the most recent CrashRecovery(); session-replay entries
  /// (including lazy orphan recoveries) are appended as they finish.
  mutable audit::Mutex timeline_mu_{"msp.timeline"};
  obs::RecoveryTimeline last_recovery_timeline_ GUARDED_BY(timeline_mu_);
  /// The last crash's facts, from the bundle it froze, until a recovery
  /// joins them; a graceful restart finds none.
  std::optional<obs::CrashFacts> crash_facts_ GUARDED_BY(timeline_mu_);
  /// Concurrent RecoverSessionReplay calls right now / high-water mark.
  std::atomic<uint32_t> active_replays_{0};

  /// The phased driver of the most recent crash recovery; rebuilt by each
  /// CrashRecovery() under lifecycle_mu_, and quiesced before replacement
  /// (pool tasks referencing it are joined by Crash/Shutdown).
  std::unique_ptr<RecoveryCoordinator>
      recovery_coordinator_;  // audit:allow(guarded-by)

  /// Crashes suffered (not graceful shutdowns); stamps flight bundles.
  std::atomic<uint64_t> crash_generation_{0};
  /// Model time the most recent Start() finished (any mode) — the anchor of
  /// statusz's "uptime since last recovery".
  std::atomic<double> last_start_end_ms_{0.0};

  // Observability handles (owned by the environment's registry).
  obs::Histogram* hist_queue_wait_ms_;  ///< "msp.queue_wait_ms"
  obs::Histogram* hist_execute_ms_;     ///< "msp.execute_ms"
  obs::Histogram* hist_flush_wait_ms_;  ///< "msp.flush_wait_ms" (dist flush)
  obs::Histogram* hist_request_ms_;     ///< "msp.request_ms" (dequeue→done)
  obs::Histogram* hist_replay_ms_;      ///< "msp.replay_ms" per session replay
  obs::Counter* ctr_own_requests_;      ///< "<id>.requests"

  /// Psession's or StateServer's session-state store (null in the other
  /// modes). Created in Start() before workers exist; internally locked.
  std::unique_ptr<SessionStore> store_;  // audit:allow(guarded-by)
};

}  // namespace msplog
