#include "msp/log_inspect.h"

#include <algorithm>

#include "log/log_record.h"
#include "log/log_scanner.h"
#include "msp/msp_checkpoint_format.h"
#include "msp/session.h"
#include "obs/json.h"

namespace msplog {

namespace {

std::string Lsn(uint64_t v) { return std::to_string(v); }

}  // namespace

std::string SessionLogStats::ToJson() const {
  obs::Json peers;
  for (const auto& [peer, n] : calls_by_peer) peers.Add(peer, n);
  return obs::Json()
      .Add("session", session_id)
      .Add("requests", requests)
      .Add("nested_calls", nested_calls)
      .Add("log_records", log_records)
      .Add("log_bytes", log_bytes)
      .Add("checkpoints", checkpoints)
      .Add("dv_entries", dv_entries)
      .Add("calls_by_peer", peers)
      .Str();
}

std::string LogInspectReport::Summary() const {
  std::string out;
  out += "records: " + std::to_string(records);
  out += "  lsn range: [" + Lsn(first_lsn) + ", " + Lsn(last_lsn) + "]";
  out += "  image bytes: " + std::to_string(image_bytes) + "\n";
  out += "by type:\n";
  for (const auto& [type, n] : records_by_type) {
    out += "  " + type + ": " + std::to_string(n) + "\n";
  }
  out += "sessions: " + std::to_string(records_by_session.size());
  out += "  session checkpoints: " + std::to_string(session_checkpoints);
  out += "  shared-var checkpoints: " + std::to_string(shared_var_checkpoints);
  out += "  msp checkpoints: " + std::to_string(msp_checkpoints) + "\n";
  if (archive_segments > 0) {
    out += "archive segments overlaid: " + std::to_string(archive_segments) +
           "\n";
  }
  if (newest_msp_checkpoint_min_lsn > 0) {
    out += "newest msp checkpoint min-recovery lsn: " +
           Lsn(newest_msp_checkpoint_min_lsn) + "\n";
  }
  if (torn_tail) {
    out += "torn tail at lsn " + Lsn(torn_tail_lsn) +
           " (normal after a crash)\n";
  }
  if (corrupt_lsn != 0) {
    out += "corrupt at lsn " + Lsn(corrupt_lsn) + ": intact frame at lsn " +
           Lsn(intact_lsn) + " (mid-log corruption)\n";
  }
  if (!session_stats.empty()) {
    out += "per-session stats:\n";
    for (const auto& s : session_stats) {
      out += "  " + s.session_id + ": requests=" +
             std::to_string(s.requests) + " nested_calls=" +
             std::to_string(s.nested_calls) + " records=" +
             std::to_string(s.log_records) + " bytes=" +
             std::to_string(s.log_bytes) + " checkpoints=" +
             std::to_string(s.checkpoints) + " dv_entries=" +
             std::to_string(s.dv_entries) + "\n";
    }
  }
  if (invariant_violations.empty()) {
    out += "invariants: OK\n";
  } else {
    out += "invariants: " + std::to_string(invariant_violations.size()) +
           " VIOLATION(S)\n";
    for (const auto& v : invariant_violations) out += "  ! " + v + "\n";
  }
  return out;
}

std::string LogInspectReport::ToJson() const {
  obs::Json by_type;
  for (const auto& [type, n] : records_by_type) by_type.Add(type, n);
  obs::JsonArray violations;
  for (const auto& v : invariant_violations) violations.Push(v);
  obs::Json out;
  out.Add("records", records)
      .Add("first_lsn", first_lsn)
      .Add("last_lsn", last_lsn)
      .Add("image_bytes", image_bytes)
      .Add("by_type", by_type)
      .Add("sessions", records_by_session.size())
      .Add("session_checkpoints", session_checkpoints)
      .Add("shared_var_checkpoints", shared_var_checkpoints)
      .Add("msp_checkpoints", msp_checkpoints)
      .Add("newest_msp_checkpoint_min_lsn", newest_msp_checkpoint_min_lsn)
      .Add("archive_segments", archive_segments)
      .Add("torn_tail", torn_tail)
      .Add("torn_tail_lsn", torn_tail_lsn)
      .Add("corrupt_lsn", corrupt_lsn)
      .Add("intact_lsn", intact_lsn)
      .Add("invariant_violations", violations);
  if (!session_stats.empty()) {
    obs::JsonArray sessions;
    for (const SessionLogStats& s : session_stats) sessions.PushRaw(s.ToJson());
    out.Add("session_stats", sessions);
  }
  return out.Str();
}

Status InspectLogImage(SimDisk* disk, const std::string& file,
                       const LogInspectOptions& opts, LogInspectReport* report,
                       std::string* dump_text) {
  *report = LogInspectReport();
  const uint64_t durable = disk->FileSize(file);
  report->image_bytes = durable;
  if (durable == 0) {
    return Status::NotFound("log image '" + file + "' is missing or empty");
  }

  // A throwaway session holds checkpoint blobs while they are validated.
  Session scratch("inspect", "inspect");
  std::map<std::string, SessionLogStats> sstats;

  // The per-record checks, the dump and the stats ride the analysis pass.
  auto visit = [&](const LogRecord& rec, uint64_t frame_bytes) {
    if (++report->records == 1) {
      report->first_lsn = rec.lsn;
    } else if (rec.lsn <= report->last_lsn) {
      report->invariant_violations.push_back(
          "lsn not increasing: " + Lsn(rec.lsn) + " after " +
          Lsn(report->last_lsn));
    }
    report->last_lsn = rec.lsn;
    report->records_by_type[LogRecordTypeName(rec.type)]++;
    if (!rec.session_id.empty()) report->records_by_session[rec.session_id]++;

    if (opts.collect_session_stats && !rec.session_id.empty()) {
      SessionLogStats& ss = sstats[rec.session_id];
      ss.session_id = rec.session_id;
      ++ss.log_records;
      ss.log_bytes += frame_bytes;
      switch (rec.type) {
        case LogRecordType::kRequestReceive:
          ++ss.requests;
          break;
        case LogRecordType::kReplyReceive:
          // One logged reply receive per completed nested call; `target`
          // names the callee.
          ++ss.nested_calls;
          if (!rec.target.empty()) ++ss.calls_by_peer[rec.target];
          break;
        case LogRecordType::kSessionCheckpoint:
          ++ss.checkpoints;
          break;
        default:
          break;
      }
      if (rec.has_dv) ss.dv_entries = rec.dv.entry_count();
    }

    switch (rec.type) {
      case LogRecordType::kSharedWrite:
        if (rec.prev_lsn != 0 && rec.prev_lsn >= rec.lsn) {
          report->invariant_violations.push_back(
              "shared-write chain not backward: prev_lsn " +
              Lsn(rec.prev_lsn) + " >= lsn " + Lsn(rec.lsn) + " (var " +
              rec.var_id + ")");
        }
        break;
      case LogRecordType::kEos:
        if (rec.prev_lsn > rec.lsn) {
          report->invariant_violations.push_back(
              "eos points forward: prev_lsn " + Lsn(rec.prev_lsn) +
              " > lsn " + Lsn(rec.lsn));
        }
        break;
      case LogRecordType::kSessionCheckpoint: {
        ++report->session_checkpoints;
        Status dst = scratch.DecodeCheckpoint(rec.payload);
        if (!dst.ok()) {
          report->invariant_violations.push_back(
              "session checkpoint at " + Lsn(rec.lsn) +
              " does not decode: " + dst.ToString());
        } else if (opts.dump_checkpoints && dump_text) {
          *dump_text += "  checkpoint session=" + rec.session_id +
                        " state_number=" + Lsn(scratch.state_number) +
                        " next_seqno=" +
                        std::to_string(scratch.next_expected_seqno) +
                        " vars=" + std::to_string(scratch.vars.size()) +
                        " outgoing=" + std::to_string(scratch.outgoing.size()) +
                        "\n";
        }
        break;
      }
      case LogRecordType::kSharedVarCheckpoint:
        ++report->shared_var_checkpoints;
        break;
      case LogRecordType::kMspCheckpoint: {
        ++report->msp_checkpoints;
        MspCheckpointData data;
        Status dst = data.Decode(rec.payload);
        if (!dst.ok()) {
          report->invariant_violations.push_back(
              "msp checkpoint at " + Lsn(rec.lsn) +
              " does not decode: " + dst.ToString());
        } else {
          uint64_t min_lsn = data.MinRecoveryLsn(rec.lsn);
          if (min_lsn > rec.lsn) {
            report->invariant_violations.push_back(
                "msp checkpoint at " + Lsn(rec.lsn) +
                " implies scan start " + Lsn(min_lsn) + " beyond itself");
          }
          // Records arrive in LSN order, so the last decodable MSP
          // checkpoint seen is the newest — the one the anchor points at
          // and the one whose min-recovery LSN bounds reclamation.
          report->newest_msp_checkpoint_min_lsn = min_lsn;
          if (opts.dump_checkpoints && dump_text) {
            *dump_text += "  msp checkpoint sessions=" +
                          std::to_string(data.sessions.size()) +
                          " vars=" + std::to_string(data.vars.size()) +
                          " min_recovery_lsn=" + Lsn(min_lsn) + "\n";
          }
        }
        break;
      }
      default:
        break;
    }

    if (opts.dump_records && dump_text) {
      // A record returned by the scanner passed its frame CRC.
      *dump_text += Lsn(rec.lsn) + " " +
                    std::string(LogRecordTypeName(rec.type));
      if (!rec.session_id.empty()) *dump_text += " session=" + rec.session_id;
      if (!rec.var_id.empty()) *dump_text += " var=" + rec.var_id;
      if (rec.seqno != 0) *dump_text += " seqno=" + std::to_string(rec.seqno);
      if (rec.prev_lsn != 0) *dump_text += " prev_lsn=" + Lsn(rec.prev_lsn);
      if (rec.has_dv) *dump_text += " dv";
      *dump_text += " payload=" + std::to_string(rec.payload.size()) +
                    "B crc=ok\n";
    }
  };

  LogAnalysis scan;
  MSPLOG_RETURN_IF_ERROR(AnalyzeLog(disk, file, /*start_lsn=*/0, durable,
                                    &scan, visit));
  if (scan.end == LogEnd::kTornTail) {
    report->torn_tail = true;
    report->torn_tail_lsn = scan.end_lsn;
  } else if (scan.end == LogEnd::kCorrupt) {
    report->corrupt_lsn = scan.end_lsn;
    report->intact_lsn = scan.intact_lsn;
    report->invariant_violations.push_back(
        "mid-log corruption: bad frame at " + Lsn(scan.end_lsn) +
        ", intact frame at " + Lsn(scan.intact_lsn));
  }

  // No live session cut: checkpoint-driven reclamation (hole punch or
  // archiving) discards strictly below the newest MSP checkpoint's
  // min-recovery LSN, and the record *at* that LSN is one recovery still
  // reads — so the first record surviving in the image must sit at or
  // before it. A first record beyond it means bytes a live session's
  // replay needed were punched or mis-archived.
  if (report->records > 0 && report->newest_msp_checkpoint_min_lsn > 0 &&
      report->first_lsn > report->newest_msp_checkpoint_min_lsn) {
    report->invariant_violations.push_back(
        "live prefix cut: first surviving record at " +
        Lsn(report->first_lsn) + " but newest msp checkpoint needs scan from " +
        Lsn(report->newest_msp_checkpoint_min_lsn));
  }

  // Per-session request seqnos never decrease in log order — except records
  // an EOS cut made invisible, which resent requests may legitimately
  // shadow with equal or lower seqnos.
  for (const auto& [session, a] : scan.sessions) {
    uint64_t prev_seqno = 0;
    uint64_t prev_lsn = 0;
    for (const SessionAnalysis::Request& ref : a.requests) {
      const bool in_cut =
          std::any_of(a.cuts.begin(), a.cuts.end(), [&](const auto& c) {
            return ref.lsn >= c.from_lsn && ref.lsn <= c.to_lsn;
          });
      if (in_cut) continue;
      if (ref.seqno < prev_seqno) {
        report->invariant_violations.push_back(
            "session " + session + ": request seqno " +
            std::to_string(ref.seqno) + " at lsn " + Lsn(ref.lsn) +
            " after seqno " + std::to_string(prev_seqno) + " at lsn " +
            Lsn(prev_lsn));
      }
      prev_seqno = ref.seqno;
      prev_lsn = ref.lsn;
    }
  }

  for (auto& entry : sstats) {
    report->session_stats.push_back(std::move(entry.second));
  }

  return Status::OK();
}

}  // namespace msplog
