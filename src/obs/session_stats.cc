#include "obs/session_stats.h"

#include "obs/json.h"

namespace msplog {
namespace obs {

namespace {

void AtomicAddDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void AtomicMaxU64(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void SessionStats::OnNestedCall(const std::string& peer, bool cross_domain) {
  nested_calls_.fetch_add(1, std::memory_order_relaxed);
  if (cross_domain) {
    cross_domain_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  audit::LockGuard lk(peers_mu_);
  ++calls_by_peer_[peer];
}

void SessionStats::OnRequestFanout(uint64_t calls) {
  AtomicMaxU64(&max_request_fanout_, calls);
}

void SessionStats::OnFlushStall(double stall_ms) {
  flush_stalls_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&flush_stall_ms_, stall_ms);
}

void SessionStats::OnLogAppend(uint64_t framed_bytes) {
  log_records_.fetch_add(1, std::memory_order_relaxed);
  log_bytes_.fetch_add(framed_bytes, std::memory_order_relaxed);
}

SessionStatsSnapshot SessionStats::Snap(const std::string& session_id) const {
  SessionStatsSnapshot s;
  s.session_id = session_id;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.nested_calls = nested_calls_.load(std::memory_order_relaxed);
  s.max_request_fanout = max_request_fanout_.load(std::memory_order_relaxed);
  s.cross_domain_calls = cross_domain_calls_.load(std::memory_order_relaxed);
  s.flush_stalls = flush_stalls_.load(std::memory_order_relaxed);
  s.flush_stall_ms = flush_stall_ms_.load(std::memory_order_relaxed);
  s.log_records = log_records_.load(std::memory_order_relaxed);
  s.log_bytes = log_bytes_.load(std::memory_order_relaxed);
  s.forced_flushes = forced_flushes_.load(std::memory_order_relaxed);
  s.piggybacked_sends = piggybacked_sends_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.replays = replays_.load(std::memory_order_relaxed);
  s.dv_entries = dv_entries_.load(std::memory_order_relaxed);
  {
    audit::LockGuard lk(peers_mu_);
    s.calls_by_peer = calls_by_peer_;
  }
  return s;
}

std::string SessionStatsSnapshot::ToJson() const {
  Json peers;
  for (const auto& [peer, n] : calls_by_peer) peers.Add(peer, n);
  return Json()
      .Add("session", session_id)
      .Add("requests", requests)
      .Add("nested_calls", nested_calls)
      .Add("max_request_fanout", max_request_fanout)
      .Add("cross_domain_calls", cross_domain_calls)
      .Add("flush_stalls", flush_stalls)
      .Add("flush_stall_ms", flush_stall_ms)
      .Add("log_records", log_records)
      .Add("log_bytes", log_bytes)
      .Add("forced_flushes", forced_flushes)
      .Add("piggybacked_sends", piggybacked_sends)
      .Add("checkpoints", checkpoints)
      .Add("replays", replays)
      .Add("dv_entries", dv_entries)
      .Add("calls_by_peer", peers)
      .Str();
}

std::string SessionTelemetryJson(const std::vector<SessionStatsSnapshot>& v) {
  JsonArray out;
  for (const SessionStatsSnapshot& s : v) out.PushRaw(s.ToJson());
  return out.Str();
}

}  // namespace obs
}  // namespace msplog
