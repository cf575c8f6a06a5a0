// Configuration of one middleware server process. The `mode` selects between
// the paper's log-based recovery and the §5 baseline configurations.
#pragma once

#include <cstdint>
#include <string>

namespace msplog {

enum class RecoveryMode {
  /// The paper's system: locally optimistic logging, value logging, fuzzy
  /// checkpointing, log-based crash/orphan recovery. Whether message
  /// exchanges are optimistic or pessimistic is decided per message by the
  /// service-domain configuration.
  kLogBased,
  /// No logging or recovery infrastructure at all (config "NoLog").
  kNoLog,
  /// Persistent sessions: session state is fetched from and stored to a
  /// local WAL-backed database around every request (config "Psession").
  kPsession,
  /// Session state kept at a remote in-memory state server (config
  /// "StateServer"): two network round trips per request, no durability.
  kStateServer,
};

const char* RecoveryModeName(RecoveryMode m);

/// Sends of one outgoing call (Msp::CallRoundTrip), and send rounds of one
/// distributed-flush flight, before the MSP gives up on the peer.
inline constexpr uint32_t kMaxSendRounds = 200;

struct MspConfig {
  std::string id;
  RecoveryMode mode = RecoveryMode::kLogBased;

  /// Worker threads serving the request queue (also used for parallel
  /// session recovery).
  size_t thread_pool_size = 8;

  // ---- logging / flushing ----
  /// Batch flushing (§5.5): park flush requests for `batch_timeout_ms` so
  /// several ride one physical write.
  bool batch_flush = false;
  double batch_timeout_ms = 8.0;
  /// Group-commit the peer legs of distributed flushes (the distributed
  /// analogue of §5.5 batch flushing): concurrent legs toward the same peer
  /// join or accumulate behind one in-flight "flush up to" request, and the
  /// receiver serves concurrent requests from one physical flush. When
  /// false, every leg sends its own kFlushRequest (per-request behaviour).
  bool coalesce_distributed_flushes = true;

  // ---- checkpointing (§3.2–§3.4) ----
  /// Take a session checkpoint once this much log was written for the
  /// session since its previous checkpoint. 0 disables ("NoCp").
  uint64_t session_checkpoint_threshold_bytes = 1 << 20;
  /// Checkpoint a shared variable every this many writes. 0 disables.
  uint32_t shared_var_checkpoint_threshold_writes = 256;
  /// Take an MSP fuzzy checkpoint whenever the log has grown by this much
  /// since the previous one (evaluated by the checkpoint daemon). 0 = only
  /// on demand (ForceCheckpoint(CheckpointTarget::Msp())) and at recovery
  /// end.
  uint64_t msp_checkpoint_log_bytes = 1 << 20;
  /// Force a session / shared-variable checkpoint if this many MSP
  /// checkpoints passed since its last one (§3.4, idle-session rule).
  uint32_t force_checkpoint_after_msp_cps = 4;
  /// Run the background checkpoint daemon.
  bool checkpoint_daemon = false;
  /// Reclaim (hole-punch) log space below the analysis-scan start after
  /// each MSP checkpoint — everything before it can never be read again.
  bool reclaim_log = true;
  /// With reclaim_log: copy each reclaimed range into an archive segment
  /// (`<log>.arc.<base>`) before punching it, so offline forensics can still
  /// reconstruct the full log image (msplog_inspect --archive-manifest).
  bool archive_log = false;

  // ---- rpc ----
  /// Resend timeout for outgoing MSP-to-MSP calls (model ms).
  double call_resend_timeout_ms = 400.0;
  /// Backoff after a Busy reply (model ms).
  double busy_backoff_ms = 100.0;
  /// Timeout for one round of a distributed-flush request (model ms);
  /// retried until the peer answers or the session turns out orphan.
  double flush_timeout_ms = 300.0;

  // ---- baselines ----
  /// Endpoint name of the state server (mode kStateServer).
  std::string state_server;

  // ---- ablations (DESIGN.md §5) ----
  /// §3.2: per-session DVs let sessions recover independently. When false,
  /// the MSP behaves as if it kept ONE dependency vector for the whole
  /// process (the strawman the paper argues against): any orphan dependency
  /// rolls back EVERY session, and messages carry the union DV.
  bool per_session_dv = true;
  /// §4.3: replay sessions one at a time instead of in parallel on the
  /// thread pool — quantifies the parallel-recovery contribution.
  bool sequential_recovery = false;

  // ---- CPU model ----
  /// When true, ServiceContext::Compute() serializes on a per-MSP mutex,
  /// modeling the paper's single-CPU server machines: concurrent requests
  /// contend for the core and throughput saturates (§5.5, Fig. 17).
  bool single_core_cpu = false;
  /// CPU milliseconds charged (on the contended core when enabled) per
  /// physical log write — fewer writes under batch flushing means less CPU,
  /// matching the paper's 90% -> 60% utilization observation.
  double cpu_per_flush_ms = 0.0;
};

inline const char* RecoveryModeName(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kLogBased: return "LogBased";
    case RecoveryMode::kNoLog: return "NoLog";
    case RecoveryMode::kPsession: return "Psession";
    case RecoveryMode::kStateServer: return "StateServer";
  }
  return "?";
}

}  // namespace msplog
