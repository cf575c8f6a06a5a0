#include "obs/recovery_timeline.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "obs/json.h"

namespace msplog {
namespace obs {

namespace {

double NearestRank(const std::vector<double>& sorted, double q) {
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

OutageReport RecoveryTimeline::Outage() const {
  OutageReport r;
  if (crash_generation == 0) return r;
  r.valid = true;
  r.generation = crash_generation;
  r.epoch = epoch;
  r.crash_model_ms = crash_model_ms;
  r.recovery_start_ms = started_model_ms;
  // A rebuilt session's fate is that of its first converged crash replay.
  std::unordered_map<std::string_view, const SessionReplay*> first;
  for (const SessionReplay& rep : session_replays) {
    if (rep.from_crash && rep.converged) {
      first.try_emplace(rep.session_id, &rep);
    }
  }
  std::vector<double> ttrs;
  for (const InflightSession& in : inflight) {
    OutageReport::SessionFate& f = r.sessions.emplace_back();
    f.session_id = in.session_id;
    if (!in.rebuilt) {
      // Nothing to replay: servable as a fresh session once reopened.
      if (open_for_traffic_ms == 0) continue;
      f.fate = "never-logged";
      f.servable_at_ms = started_model_ms + open_for_traffic_ms;
    } else if (auto it = first.find(in.session_id); it != first.end()) {
      f.fate = it->second->cut_eos ? "orphaned" : "replayed";
      f.servable_at_ms = it->second->servable_at_ms;
      f.requests_replayed = it->second->requests_replayed;
    } else {
      continue;
    }
    f.time_to_servable_ms = f.servable_at_ms - crash_model_ms;
    ttrs.push_back(f.time_to_servable_ms);
    r.recovery_end_ms =
        std::max({r.recovery_end_ms, r.recovery_start_ms, f.servable_at_ms});
  }
  r.complete = ttrs.size() == inflight.size();
  if (ttrs.empty()) return r;
  std::sort(ttrs.begin(), ttrs.end());
  r.mttr.count = ttrs.size();
  r.mttr.mean_ms = std::accumulate(ttrs.begin(), ttrs.end(), 0.0) /
                   static_cast<double>(ttrs.size());
  r.mttr.p50_ms = NearestRank(ttrs, 0.50);
  r.mttr.p90_ms = NearestRank(ttrs, 0.90);
  r.mttr.p99_ms = NearestRank(ttrs, 0.99);
  r.mttr.max_ms = ttrs.back();
  return r;
}

std::string OutageReport::ToJson() const {
  JsonArray fates;
  for (const SessionFate& s : sessions) {
    fates.Push(Json()
                   .Add("session", s.session_id)
                   .Add("fate", s.fate)
                   .Add("was_in_flight", true)  // the view covers no other
                   .Add("servable_at_ms", s.servable_at_ms)
                   .Add("time_to_servable_ms", s.time_to_servable_ms)
                   .Add("requests_replayed", s.requests_replayed));
  }
  return Json()
      .Add("valid", valid)
      .Add("complete", complete)
      .Add("generation", generation)
      .Add("epoch", epoch)
      .Add("crash_model_ms", crash_model_ms)
      .Add("recovery_start_ms", recovery_start_ms)
      .Add("recovery_end_ms", recovery_end_ms)
      .Add("sessions", fates)
      .Add("mttr", Json()
                       .Add("count", mttr.count)
                       .Add("mean_ms", mttr.mean_ms)
                       .Add("p50_ms", mttr.p50_ms)
                       .Add("p90_ms", mttr.p90_ms)
                       .Add("p99_ms", mttr.p99_ms)
                       .Add("max_ms", mttr.max_ms))
      .Str();
}

std::string RecoveryTimeline::ToJson() const {
  JsonArray replays;
  for (const auto& r : session_replays) {
    JsonArray records;
    for (const auto& rr : r.records) {
      records.Push(Json()
                       .Add("epoch", rr.epoch)
                       .Add("seqno", rr.seqno)
                       .Add("lsn", rr.lsn));
    }
    replays.Push(Json()
                     .Add("session", r.session_id)
                     .Add("replay_ms", r.replay_ms)
                     .Add("servable_at_ms", r.servable_at_ms)
                     .Add("requests_replayed", r.requests_replayed)
                     .Add("rounds", r.rounds)
                     .Add("from_crash", r.from_crash)
                     .Add("converged", r.converged)
                     .Add("cut_eos", r.cut_eos)
                     .Add("session_checkpoint_lsn", r.session_checkpoint_lsn)
                     .Add("log_records_consumed", r.log_records_consumed)
                     .Add("records", records));
  }
  JsonArray inflight_ids;
  for (const auto& in : inflight) {
    inflight_ids.Push(
        Json().Add("session", in.session_id).Add("rebuilt", in.rebuilt));
  }
  return Json()
      .Add("epoch", epoch)
      .Add("started_ms", started_model_ms)
      .Add("analysis_scan_ms", analysis_scan_ms)
      .Add("analysis_records_scanned", analysis_records_scanned)
      .Add("analysis_bytes_scanned", analysis_bytes_scanned)
      .Add("post_scan_checkpoint_ms", post_scan_checkpoint_ms)
      .Add("open_for_traffic_ms", open_for_traffic_ms)
      .Add("sessions_to_recover", sessions_to_recover)
      .Add("max_parallel_replays", max_parallel_replays)
      .Add("orphan_events", orphan_events)
      .Add("on_demand_replays", on_demand_replays)
      .Add("total_replay_ms", TotalReplayMs())
      .Add("msp_checkpoint_lsn", msp_checkpoint_lsn)
      .Add("scan_start_lsn", scan_start_lsn)
      .Add("scan_end_lsn", scan_end_lsn)
      .Add("crash_generation", crash_generation)
      .Add("crash_model_ms", crash_model_ms)
      .Add("inflight", inflight_ids)
      .Add("session_replays", replays)
      .Str();
}

}  // namespace obs
}  // namespace msplog
