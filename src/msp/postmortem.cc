#include "msp/postmortem.h"

#include <algorithm>

#include "log/log_scanner.h"
#include "obs/json.h"

namespace msplog {

const PostmortemSessionFate* PostmortemReport::Find(
    const std::string& session_id) const {
  for (const auto& f : sessions) {
    if (f.session_id == session_id) return &f;
  }
  return nullptr;
}

std::string PostmortemReport::Summary() const {
  std::string out;
  out += "post-mortem for " + actor + " (crash generation " +
         std::to_string(generation) + ")\n";
  out += "  crash at model " + std::to_string(crash_model_ms) +
         " ms, log durable to " + std::to_string(durable_at_crash) + " of " +
         std::to_string(image_bytes) + " bytes, " +
         std::to_string(records_scanned) + " records scanned\n";
  for (const auto& f : sessions) {
    out += "  session " + f.session_id + ": " + f.fate + " (first_lsn=" +
           std::to_string(f.first_lsn) + ", requests_logged=" +
           std::to_string(f.requests_logged) + ", eos_cuts_after_crash=" +
           std::to_string(f.eos_cuts_after_crash) + ")\n";
  }
  if (sessions.empty()) out += "  no in-flight sessions at the crash\n";
  return out;
}

std::string PostmortemReport::ToJson() const {
  obs::JsonArray fates;
  for (const auto& f : sessions) {
    fates.Push(obs::Json()
                   .Add("session", f.session_id)
                   .Add("fate", f.fate)
                   .Add("first_lsn", f.first_lsn)
                   .Add("requests_logged", f.requests_logged)
                   .Add("eos_cuts_after_crash", f.eos_cuts_after_crash));
  }
  return obs::Json()
      .Add("actor", actor)
      .Add("generation", generation)
      .Add("crash_model_ms", crash_model_ms)
      .Add("durable_at_crash", durable_at_crash)
      .Add("records_scanned", records_scanned)
      .Add("image_bytes", image_bytes)
      .Add("sessions", fates)
      .Str();
}

Status DerivePostmortem(SimDisk* disk, const std::string& file,
                        const PostmortemInput& in, PostmortemReport* report) {
  *report = PostmortemReport();
  report->actor = in.actor;
  report->generation = in.generation;
  report->crash_model_ms = in.crash_model_ms;
  report->durable_at_crash = in.durable_at_crash;
  report->image_bytes = disk->FileSize(file);
  if (report->image_bytes == 0) {
    return Status::NotFound("empty or missing log image: " + file);
  }

  // One analysis pass collects the per-session evidence; classification
  // only consults sessions the bundle names as in-flight.
  LogAnalysis scan;
  MSPLOG_RETURN_IF_ERROR(AnalyzeLog(disk, file, /*start_lsn=*/0,
                                    report->image_bytes, &scan));
  report->records_scanned = scan.records;
  const uint64_t crash = in.durable_at_crash;
  for (const std::string& id : in.inflight_sessions) {
    PostmortemSessionFate f;
    f.session_id = id;
    auto it = scan.sessions.find(id);
    if (it != scan.sessions.end()) f.first_lsn = it->second.first_lsn;
    // A durable trace is any record of the session below the crash point.
    if (it == scan.sessions.end() || f.first_lsn >= crash) {
      f.fate = "never-logged";
    } else {
      const SessionAnalysis& a = it->second;
      f.requests_logged = std::count_if(
          a.requests.begin(), a.requests.end(),
          [crash](const auto& r) { return r.lsn < crash; });
      f.eos_cuts_after_crash =
          std::count_if(a.cuts.begin(), a.cuts.end(),
                        [crash](const auto& c) { return c.to_lsn >= crash; });
      f.fate = f.eos_cuts_after_crash > 0 ? "orphaned" : "replayed";
    }
    report->sessions.push_back(std::move(f));
  }
  return Status::OK();
}

}  // namespace msplog
