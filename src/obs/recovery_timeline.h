// RecoveryTimeline — the one record of one recovery (§4.3): the
// single-threaded analysis scan, the post-scan checkpoint, the moment the
// server reopened for traffic (instant restart), and every session replay
// that follows (background drain or on-demand admission after a crash,
// lazy when orphan recovery fires at an interception point). This is the
// sole source of the analysis-scan duration.
//
// Provenance: every replay entry also records *what* rebuilt its session —
// the session checkpoint replay initialized from and the (epoch, seqno, LSN)
// of every request-boundary log record the final replay round consumed —
// next to the MSP checkpoint the anchor pointed at, which the record keeps
// once. This is the log-forensic view recovery debugging needs: "session X
// was rebuilt from checkpoint at LSN c by replaying records l1..ln".
//
// Outage view: after a crash the record also keeps the inputs of the
// outage observatory's join — the frozen flight bundle's generation and
// freeze time (obs/flight_recorder.h), and the sessions it names as in
// flight, each marked with whether the analysis scan rebuilt it. Outage()
// computes from those and the replays, per in-flight session:
//
//   fate "replayed"      the session had durable log records and its first
//                        converged crash replay rebuilt it cleanly;
//   fate "orphaned"      that replay had to cut an orphan suffix (EOS
//                        written, positions truncated — §4.1) before the
//                        session was servable again;
//   fate "never-logged"  the bundle says the session was in flight but the
//                        durable log holds no trace of it: its work is lost
//                        and only duplicate detection will save the client.
//                        Servable (as a fresh session) once the server
//                        reopened;
//   fate "pending"       not servable yet (complete == false).
//
// time_to_servable is the per-session MTTR the REDO-only instant-restart
// literature argues for: model ms from the freeze (the fault) until that
// session could process a request again; the view aggregates them into
// MTTR percentiles. The view's JSON schema is validated by
// scripts/check_bench_json.py and documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msplog {
namespace obs {

/// The outage view of one recovery record (RecoveryTimeline::Outage()).
/// Plain data: nothing writes it but the computation from the record.
struct OutageReport {
  struct SessionFate {
    std::string session_id;
    std::string fate = "pending";
    double servable_at_ms = 0;     ///< model time the session became servable
    double time_to_servable_ms = 0;  ///< servable_at - crash freeze
    uint64_t requests_replayed = 0;
  };

  struct Mttr {
    uint64_t count = 0;  ///< resolved sessions aggregated below
    double mean_ms = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
  };

  bool valid = false;     ///< false = the record joined no crash bundle
  bool complete = false;  ///< every fate resolved (none "pending")
  uint64_t generation = 0;  ///< crash generation of the joined bundle
  uint32_t epoch = 0;       ///< recovery epoch that performed the join
  double crash_model_ms = 0;     ///< bundle freeze time
  double recovery_start_ms = 0;  ///< analysis scan start
  double recovery_end_ms = 0;    ///< last fate resolution
  std::vector<SessionFate> sessions;  ///< one per in-flight session
  Mttr mttr;

  std::string ToJson() const;
};

struct RecoveryTimeline {
  /// One (epoch, seqno, LSN) log record consumed by a replay. `epoch` is
  /// the epoch under which the replay re-adopted the record into the
  /// session's DV; `lsn` doubles as the paper's state number.
  struct RecordRef {
    uint32_t epoch = 0;
    uint64_t seqno = 0;
    uint64_t lsn = 0;
  };

  /// One completed replay of one session, and what rebuilt the session:
  /// the checkpoint it initialized from and the request-boundary records
  /// its final round consumed. Non-request records (logged shared reads,
  /// reply receives) consumed between requests are counted in
  /// log_records_consumed.
  struct SessionReplay {
    std::string session_id;
    double replay_ms = 0;          ///< model ms from replay start to end
    double servable_at_ms = 0;     ///< model time the replay ended
    uint64_t requests_replayed = 0;
    uint32_t rounds = 0;           ///< ReplayOnce passes (orphan re-runs > 1)
    bool from_crash = false;       ///< true: §4.3 post-crash parallel replay;
                                   ///< false: §4.1 lazy orphan recovery
    bool converged = true;         ///< false: replay gave up with an error
    bool cut_eos = false;          ///< this replay wrote an EOS (§4.1)
    uint64_t session_checkpoint_lsn = 0;  ///< 0 = replayed from scratch
    uint64_t log_records_consumed = 0;    ///< all positions consumed
    std::vector<RecordRef> records;       ///< kRequestReceive records replayed
  };

  /// A session the joined flight bundle names as in flight at the crash.
  struct InflightSession {
    std::string session_id;
    bool rebuilt = false;  ///< the analysis scan found a durable trace
  };

  uint32_t epoch = 0;              ///< epoch started by this recovery
  double started_model_ms = 0;     ///< NowModelMs at recovery start
  double analysis_scan_ms = 0;     ///< single-threaded log scan (§4.3)
  uint64_t analysis_records_scanned = 0;
  uint64_t analysis_bytes_scanned = 0;  ///< durable log extent scanned
  double post_scan_checkpoint_ms = 0;   ///< fresh MSP checkpoint (Fig. 12)
  /// Model ms from recovery start until the server reopened for traffic
  /// (instant restart: before any session replayed); 0 until it reopens.
  /// Sessions become servable individually afterwards — see the outage
  /// view's per-session time_to_servable_ms for the client-visible metric.
  double open_for_traffic_ms = 0;
  uint64_t sessions_to_recover = 0;     ///< sessions queued for replay
  /// One entry per replay, in completion order; a crash replay appends
  /// exactly one, a never-logged session none.
  std::vector<SessionReplay> session_replays;
  uint32_t max_parallel_replays = 0;    ///< peak concurrent session replays
  uint64_t orphan_events = 0;           ///< orphan detections attributed here
  /// Replays triggered by a live request hitting the admission gate ahead
  /// of the background drain (subset of session_replays).
  uint64_t on_demand_replays = 0;

  // ---- provenance ----
  uint64_t msp_checkpoint_lsn = 0;  ///< anchor's MSP checkpoint (0 = none)
  uint64_t scan_start_lsn = 0;      ///< analysis scan start position
  uint64_t scan_end_lsn = 0;        ///< durable extent end at recovery time

  // ---- crash join (the outage view's inputs) ----
  uint64_t crash_generation = 0;  ///< joined bundle (0 = no crash joined)
  double crash_model_ms = 0;      ///< the bundle's freeze time
  std::vector<InflightSession> inflight;

  /// Sum of per-session replay model ms (parallel replays overlap, so this
  /// can exceed wall model time).
  double TotalReplayMs() const {
    double t = 0;
    for (const auto& r : session_replays) t += r.replay_ms;
    return t;
  }

  /// The outage view: each in-flight session's fate and time-to-servable,
  /// `complete`, and the MTTR percentiles (nearest-rank over the resolved
  /// sessions). Invalid, with no sessions, when no crash was joined.
  /// O(n log n) in the replays and in-flight sessions.
  OutageReport Outage() const;

  std::string ToJson() const;
};

}  // namespace obs
}  // namespace msplog
