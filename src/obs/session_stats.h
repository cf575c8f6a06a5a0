// SessionStats — per-session telemetry for the adaptive-logging decision
// signals the ROADMAP calls for: request volume, nested-call fan-out,
// cross-server call rate per peer, flush stalls and their cost, log volume,
// and how often the session pays a forced (pessimistic) flush versus riding
// an optimistic DV piggyback.
//
// Concurrency contract mirrors the metric classes in metrics.h: every
// counter on the request hot path is one relaxed atomic RMW — no locks, no
// allocation. The only mutex guards the per-peer call map, which is touched
// exclusively on outgoing *remote* calls (those already pay a network round
// trip, so a short uncontended lock is noise).
//
// SessionStatsSnapshot is a plain value shared by three consumers:
//   * Msp::SessionTelemetry() / DumpStatusz() — live sessions;
//   * BENCH_JSON "session_telemetry" sections — per-bench dumps;
//   * msplog_inspect --stats — the same shape reconstructed offline from a
//     raw log image, so online and offline views diff cleanly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/mutex.h"

namespace msplog {
namespace obs {

/// Plain-value copy of one session's telemetry.
struct SessionStatsSnapshot {
  std::string session_id;
  uint64_t requests = 0;         ///< requests executed (not replayed)
  uint64_t nested_calls = 0;     ///< outgoing MSP→MSP calls, all peers
  uint64_t max_request_fanout = 0;  ///< max nested calls in one request
  uint64_t cross_domain_calls = 0;  ///< nested calls that left the domain
  uint64_t flush_stalls = 0;     ///< distributed flushes this session waited on
  double flush_stall_ms = 0;     ///< total model ms spent in those waits
  uint64_t log_records = 0;      ///< records appended on behalf of the session
  uint64_t log_bytes = 0;        ///< framed on-log bytes of those records
  uint64_t forced_flushes = 0;   ///< pessimistic boundaries (flush before send)
  uint64_t piggybacked_sends = 0;  ///< optimistic sends (DV rode the message)
  uint64_t checkpoints = 0;      ///< session checkpoints taken
  uint64_t replays = 0;          ///< requests re-executed during recovery
  uint64_t dv_entries = 0;       ///< current dependency-vector width
  std::map<std::string, uint64_t> calls_by_peer;  ///< nested calls per callee

  /// {"session":"s1","requests":N,...,"calls_by_peer":{"m2":N,...}}
  std::string ToJson() const;
};

/// Render a telemetry set as a JSON array (used by statusz and benches).
std::string SessionTelemetryJson(const std::vector<SessionStatsSnapshot>& v);

/// Live per-session accumulator. One instance lives inside each
/// msp::Session; the MSP hot paths call the On* hooks.
class SessionStats {
 public:
  SessionStats() = default;
  SessionStats(const SessionStats&) = delete;
  SessionStats& operator=(const SessionStats&) = delete;

  void OnRequest() { requests_.fetch_add(1, std::memory_order_relaxed); }

  /// An outgoing nested call to `peer`. Remote (cross-domain) calls also
  /// count toward the pessimistic-boundary pressure signal.
  void OnNestedCall(const std::string& peer, bool cross_domain);

  /// Fan-out of the request that just finished (nested calls it made).
  void OnRequestFanout(uint64_t calls);

  void OnFlushStall(double stall_ms);

  void OnLogAppend(uint64_t framed_bytes);

  void OnForcedFlush() {
    forced_flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnPiggybackedSend() {
    piggybacked_sends_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnCheckpoint() {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnReplayedRequests(uint64_t n) {
    replays_.fetch_add(n, std::memory_order_relaxed);
  }
  void SetDvEntries(uint64_t n) {
    dv_entries_.store(n, std::memory_order_relaxed);
  }

  /// Plain-value copy; `session_id` is stamped into the snapshot.
  SessionStatsSnapshot Snap(const std::string& session_id) const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> nested_calls_{0};
  std::atomic<uint64_t> max_request_fanout_{0};
  std::atomic<uint64_t> cross_domain_calls_{0};
  std::atomic<uint64_t> flush_stalls_{0};
  std::atomic<double> flush_stall_ms_{0};
  std::atomic<uint64_t> log_records_{0};
  std::atomic<uint64_t> log_bytes_{0};
  std::atomic<uint64_t> forced_flushes_{0};
  std::atomic<uint64_t> piggybacked_sends_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> replays_{0};
  std::atomic<uint64_t> dv_entries_{0};

  mutable audit::Mutex peers_mu_{"obs.session_stats.peers"};
  std::map<std::string, uint64_t> calls_by_peer_ GUARDED_BY(peers_mu_);
};

}  // namespace obs
}  // namespace msplog
