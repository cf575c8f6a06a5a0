#include "msp/postmortem.h"

#include <map>

#include "log/log_record.h"
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

  // One full scan collects the per-session evidence; classification only
  // consults sessions the bundle names as in-flight.
  struct Evidence {
    uint64_t first_lsn = 0;
    uint64_t requests_before_crash = 0;
    uint64_t eos_after_crash = 0;
    bool durable_trace = false;  ///< any record below durable_at_crash
  };
  std::map<std::string, Evidence> evidence;

  LogScanner scanner(disk, file, /*start_lsn=*/0, report->image_bytes);
  while (true) {
    LogRecord rec;
    Status st = scanner.Next(&rec);
    if (st.IsNotFound()) break;
    if (st.IsCorruption()) break;  // torn tail: durable log ends here
    MSPLOG_RETURN_IF_ERROR(st);
    ++report->records_scanned;
    if (rec.session_id.empty()) continue;
    Evidence& e = evidence[rec.session_id];
    if (e.first_lsn == 0) e.first_lsn = rec.lsn;
    if (rec.lsn < in.durable_at_crash) {
      e.durable_trace = true;
      if (rec.type == LogRecordType::kRequestReceive) {
        ++e.requests_before_crash;
      }
    } else if (rec.type == LogRecordType::kEos) {
      ++e.eos_after_crash;
    }
  }

  for (const std::string& id : in.inflight_sessions) {
    PostmortemSessionFate f;
    f.session_id = id;
    auto it = evidence.find(id);
    if (it == evidence.end() || !it->second.durable_trace) {
      f.fate = "never-logged";
      if (it != evidence.end()) f.first_lsn = it->second.first_lsn;
    } else {
      f.first_lsn = it->second.first_lsn;
      f.requests_logged = it->second.requests_before_crash;
      f.eos_cuts_after_crash = it->second.eos_after_crash;
      f.fate = it->second.eos_after_crash > 0 ? "orphaned" : "replayed";
    }
    report->sessions.push_back(std::move(f));
  }
  return Status::OK();
}

}  // namespace msplog
