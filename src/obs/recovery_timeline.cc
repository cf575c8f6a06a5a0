#include "obs/recovery_timeline.h"

#include "obs/json.h"

namespace msplog {
namespace obs {

std::string RecoveryTimeline::ToJson() const {
  JsonArray replays;
  for (const auto& r : session_replays) {
    replays.Push(Json()
                     .Add("session", r.session_id)
                     .Add("replay_ms", r.replay_ms)
                     .Add("requests_replayed", r.requests_replayed)
                     .Add("rounds", r.rounds)
                     .Add("from_crash", r.from_crash)
                     .Add("converged", r.converged));
  }
  JsonArray prov;
  for (const auto& p : provenance) {
    JsonArray records;
    for (const auto& rr : p.records) {
      records.Push(Json()
                       .Add("epoch", rr.epoch)
                       .Add("seqno", rr.seqno)
                       .Add("lsn", rr.lsn));
    }
    prov.Push(Json()
                  .Add("session", p.session_id)
                  .Add("session_checkpoint_lsn", p.session_checkpoint_lsn)
                  .Add("msp_checkpoint_lsn", p.msp_checkpoint_lsn)
                  .Add("log_records_consumed", p.log_records_consumed)
                  .Add("records", records));
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
      .Add("session_replays", replays)
      .Add("provenance", prov)
      .Str();
}

}  // namespace obs
}  // namespace msplog
