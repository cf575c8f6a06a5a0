// msplog_inspect — offline inspector and outage post-mortem for an exported
// MSP log image.
//
// A log image is the raw bytes of one MSP's physical log file (e.g. written
// by a test via SimDisk::ReadAt of "<msp>.log", or any future export path).
// The inspector loads the bytes into a fresh latency-free SimDisk and walks
// them with the same analysis pass crash recovery runs (AnalyzeLog) — so
// what it accepts is exactly what recovery would accept. A bad frame with
// an intact frame after it is mid-log corruption, which fails --self-check;
// one with nothing intact after it is a torn tail, which does not.
//
// Usage:
//   msplog_inspect [--records] [--checkpoints] [--stats] [--json]
//                  [--self-check] [--archive-manifest FILE]
//                  [--bundle BUNDLE.json [--report REPORT.json]] IMAGE
//
//   --records      dump one line per record (type, session, seqno, CRC)
//   --checkpoints  also dump decoded checkpoint contents
//   --stats        per-session counts a log can show: requests, nested
//                  calls (by peer), records, bytes, checkpoints, DV width
//   --json         print the report as JSON instead of text
//   --self-check   exit 1 unless the image has records and no invariant
//                  violations, mid-log corruption included
//   --archive-manifest FILE
//                  overlay archived log segments into the image before the
//                  walk. Each manifest line is "<base-lsn> <segment-file>"
//                  (paths relative to the manifest's directory); segment
//                  bytes land at their original byte offsets, backfilling
//                  the ranges archiving punched out of the live log. With
//                  --self-check this also verifies no live session was cut:
//                  the merged image must still start at or before the
//                  newest MSP checkpoint's min-recovery LSN.
//   --bundle BUNDLE.json
//                  the post-mortem: the crashed server's snapshot in a
//                  frozen crash bundle (FlightBundle::ToJson) names the
//                  crash point and the sessions in flight; the report lists
//                  each one's fate (replayed / orphaned / never-logged)
//   --report REPORT.json
//                  exit 1 unless the live recovery's outage view
//                  (OutageReport::ToJson) agrees with every fate (needs
//                  --bundle)
//
// Exit status: 0 OK, 1 a failed --self-check or --report cross-check,
// 2 bad usage or unreadable input.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "msp/log_inspect.h"
#include "obs/json.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace {

using msplog::obs::JsonValue;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--records] [--checkpoints] [--stats] [--json] "
               "[--self-check] [--archive-manifest FILE] "
               "[--bundle BUNDLE.json [--report REPORT.json]] "
               "<log-image-file>\n",
               argv0);
  return 2;
}

/// The whole file at `path`; nullopt, with a message, if it cannot be read.
std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (in) return std::string(std::istreambuf_iterator<char>(in), {});
  std::fprintf(stderr, "msplog_inspect: cannot open %s\n", path.c_str());
  return std::nullopt;
}

/// The JSON document at `path`; nullopt, with a message, if there is none.
std::optional<JsonValue> ReadJson(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text) return std::nullopt;
  size_t at = 0;
  std::optional<JsonValue> doc = msplog::obs::ParseJson(*text, &at);
  if (!doc) {
    std::fprintf(stderr, "msplog_inspect: %s: bad JSON at byte %zu\n",
                 path.c_str(), at);
  }
  return doc;
}

/// The string `v` holds; "" when it is absent or not a string.
std::string Text(const JsonValue* v) {
  return v && v->kind == JsonValue::Kind::kString ? v->text : "";
}

/// The crash point and in-flight sessions of a crash bundle, from its
/// crashed server's snapshot. An invariant bundle names no crashed server.
bool LoadCrashFacts(const std::string& path, msplog::obs::CrashFacts* facts) {
  const std::optional<JsonValue> bundle = ReadJson(path);
  if (!bundle) return false;
  const JsonValue* snapshots = bundle->At({"snapshots"});
  const std::string actor = Text(bundle->At({"actor"}));
  for (size_t i = 0; snapshots && i < snapshots->items.size(); ++i) {
    const JsonValue& snap = snapshots->items[i];
    const JsonValue* durable = snap.At({"log_durable_lsn"});
    const JsonValue* inflight = snap.At({"inflight_sessions"});
    if (!actor.empty() && Text(snap.At({"actor"})) == actor && durable &&
        durable->Uint() && inflight) {
      facts->durable_lsn = *durable->Uint();
      for (const JsonValue& id : inflight->items) {
        facts->inflight_sessions.push_back(Text(&id));
      }
      return true;
    }
  }
  std::fprintf(stderr,
               "msplog_inspect: %s is no crash bundle with a snapshot of its "
               "actor '%s'\n",
               path.c_str(), actor.c_str());
  return false;
}

int SelfCheck(const msplog::LogInspectReport& report) {
  if (report.records == 0 || !report.invariant_violations.empty()) {
    std::fprintf(stderr,
                 "msplog_inspect: self-check FAILED: %llu records, %zu "
                 "invariant violation(s)\n",
                 static_cast<unsigned long long>(report.records),
                 report.invariant_violations.size());
    return 1;
  }
  std::printf("self-check OK: %llu records, %llu archive segment(s), "
              "0 violations\n",
              static_cast<unsigned long long>(report.records),
              static_cast<unsigned long long>(report.archive_segments));
  return 0;
}

/// Compare the live outage view at `path` with the fates the log shows.
int CrossCheck(const std::string& path,
               const msplog::LogInspectReport& report) {
  const std::optional<JsonValue> live = ReadJson(path);
  if (!live) return 2;
  const JsonValue* sessions = live->At({"sessions"});
  if (!sessions || sessions->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "msplog_inspect: %s has no sessions array\n",
                 path.c_str());
    return 2;
  }
  msplog::obs::OutageReport view;
  for (const JsonValue& s : sessions->items) {
    view.sessions.push_back({Text(s.At({"session"})), Text(s.At({"fate"}))});
  }
  const std::vector<std::string> mismatches = report.FateMismatches(view);
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "MISMATCH %s\n", m.c_str());
  }
  if (!mismatches.empty()) {
    std::fprintf(stderr, "cross-check FAILED: %zu mismatch(es)\n",
                 mismatches.size());
    return 1;
  }
  std::printf("cross-check OK: %zu session fate(s) agree with the log\n",
              view.sessions.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  msplog::LogInspectOptions opts;
  bool json = false;
  bool self_check = false;
  std::string manifest_path, bundle_path, report_path, path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string* file = arg == "--archive-manifest" ? &manifest_path
                        : arg == "--bundle"         ? &bundle_path
                        : arg == "--report"         ? &report_path
                                                    : nullptr;
    if (file) {
      if (++i >= argc) return Usage(argv[0]);
      *file = argv[i];
    } else if (arg == "--records") {
      opts.dump_records = true;
    } else if (arg == "--checkpoints") {
      opts.dump_checkpoints = true;
    } else if (arg == "--stats") {
      opts.collect_session_stats = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg.starts_with("-") || !path.empty()) {
      return Usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (path.empty() || (!report_path.empty() && bundle_path.empty())) {
    return Usage(argv[0]);
  }
  if (!bundle_path.empty() &&
      !LoadCrashFacts(bundle_path, &opts.crash.emplace())) {
    return 2;
  }

  const std::optional<std::string> bytes = ReadFile(path);
  if (!bytes) return 2;

  // Offline: time scale 0 and no latency charging — contents only.
  msplog::SimEnvironment env(/*time_scale=*/0.0);
  msplog::SimDisk disk(&env, "inspect");
  disk.set_charge_latency(false);
  const std::string file = "image.log";
  msplog::Status wst = disk.WriteAt(file, 0, *bytes);
  if (!wst.ok()) {
    std::fprintf(stderr, "msplog_inspect: load failed: %s\n",
                 wst.ToString().c_str());
    return 2;
  }

  // Archived segments backfill the zeroed ranges archiving punched out of
  // the live log: overlay each at its original byte offset. Archiving only
  // ever moves bytes strictly below the reclamation watermark, so a segment
  // that reaches past the live image's end can only come from a mismatched
  // manifest — warn, then let the walk surface the damage as violations.
  uint64_t archive_segments = 0;
  const std::optional<std::string> manifest =
      manifest_path.empty() ? std::make_optional<std::string>()
                            : ReadFile(manifest_path);
  if (!manifest) return 2;
  // Relative segment paths resolve against the manifest's directory.
  const std::string dir =
      manifest_path.substr(0, manifest_path.find_last_of('/') + 1);
  std::istringstream lines(*manifest);
  for (std::string line; std::getline(lines, line);) {
    // "<base-lsn> <segment-file>"; '#' starts a comment.
    std::istringstream fields(line.substr(0, line.find('#')));
    uint64_t base = 0;
    std::string seg_path;
    if (!(fields >> base >> seg_path)) continue;  // blank or comment only
    if (seg_path[0] != '/') seg_path = dir + seg_path;
    const std::optional<std::string> seg = ReadFile(seg_path);
    if (!seg) return 2;
    if (base + seg->size() > bytes->size()) {
      std::fprintf(stderr,
                   "msplog_inspect: warning: archive segment %s [%llu, %llu) "
                   "reaches past the live image end %llu\n",
                   seg_path.c_str(), (unsigned long long)base,
                   (unsigned long long)(base + seg->size()),
                   (unsigned long long)bytes->size());
    }
    wst = disk.WriteAt(file, base, *seg);
    if (!wst.ok()) {
      std::fprintf(stderr, "msplog_inspect: overlay failed: %s\n",
                   wst.ToString().c_str());
      return 2;
    }
    ++archive_segments;
  }

  msplog::LogInspectReport report;
  std::string dump;
  msplog::Status st =
      msplog::InspectLogImage(&disk, file, opts, &report, &dump);
  if (!st.ok()) {
    std::fprintf(stderr, "msplog_inspect: %s\n", st.ToString().c_str());
    return 2;
  }
  report.archive_segments = archive_segments;

  if (!dump.empty()) std::fputs(dump.c_str(), stdout);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::fputs(report.Summary().c_str(), stdout);
  }

  int status = self_check ? SelfCheck(report) : 0;
  if (!report_path.empty()) {
    status = std::max(status, CrossCheck(report_path, report));
  }
  return status;
}
