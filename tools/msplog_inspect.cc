// msplog_inspect — offline inspector for an exported MSP log image.
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
//                  [--self-check] [--archive-manifest FILE] FILE
//
//   --records      dump one line per record (type, session, seqno, CRC)
//   --checkpoints  also dump decoded checkpoint contents
//   --stats        per-session counts a log can show: requests, nested
//                  calls (by peer), records, bytes, checkpoints, DV width
//   --json         print the report as JSON instead of text
//   --self-check   exit 1 unless the image has records and no invariant
//                  violations, mid-log corruption included (CI gate)
//   --archive-manifest FILE
//                  overlay archived log segments into the image before the
//                  walk. Each manifest line is "<base-lsn> <segment-file>"
//                  (paths relative to the manifest's directory); segment
//                  bytes land at their original byte offsets, backfilling
//                  the ranges archiving punched out of the live log. With
//                  --self-check this also verifies no live session was cut:
//                  the merged image must still start at or before the
//                  newest MSP checkpoint's min-recovery LSN.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msp/log_inspect.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--records] [--checkpoints] [--stats] [--json] "
               "[--self-check] [--archive-manifest FILE] <log-image-file>\n",
               argv0);
  return 2;
}

struct ManifestEntry {
  uint64_t base = 0;
  std::string path;
};

/// Parse "<base-lsn> <segment-file>" lines; '#' starts a comment, blank
/// lines are skipped. Relative segment paths resolve against the
/// manifest's own directory.
bool LoadArchiveManifest(const std::string& manifest_path,
                         std::vector<ManifestEntry>* entries) {
  std::ifstream in(manifest_path);
  if (!in) {
    std::fprintf(stderr, "msplog_inspect: cannot open manifest %s\n",
                 manifest_path.c_str());
    return false;
  }
  std::string dir;
  const size_t slash = manifest_path.find_last_of('/');
  if (slash != std::string::npos) dir = manifest_path.substr(0, slash + 1);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    ManifestEntry e;
    if (!(ls >> e.base >> e.path)) continue;  // blank / comment-only line
    if (!e.path.empty() && e.path[0] != '/') e.path = dir + e.path;
    entries->push_back(e);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  msplog::LogInspectOptions opts;
  bool json = false;
  bool self_check = false;
  std::string manifest_path;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0) {
      opts.dump_records = true;
    } else if (std::strcmp(argv[i], "--checkpoints") == 0) {
      opts.dump_checkpoints = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      opts.collect_session_stats = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check = true;
    } else if (std::strcmp(argv[i], "--archive-manifest") == 0) {
      if (++i >= argc) return Usage(argv[0]);
      manifest_path = argv[i];
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "msplog_inspect: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Offline: time scale 0 and no latency charging — contents only.
  msplog::SimEnvironment env(/*time_scale=*/0.0);
  msplog::SimDisk disk(&env, "inspect");
  disk.set_charge_latency(false);
  const std::string file = "image.log";
  msplog::Status wst = disk.WriteAt(file, 0, bytes);
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
  if (!manifest_path.empty()) {
    std::vector<ManifestEntry> entries;
    if (!LoadArchiveManifest(manifest_path, &entries)) return 2;
    for (const ManifestEntry& e : entries) {
      std::ifstream seg(e.path, std::ios::binary);
      if (!seg) {
        std::fprintf(stderr, "msplog_inspect: cannot open archive segment %s\n",
                     e.path.c_str());
        return 2;
      }
      std::string seg_bytes((std::istreambuf_iterator<char>(seg)),
                            std::istreambuf_iterator<char>());
      if (e.base + seg_bytes.size() > bytes.size()) {
        std::fprintf(stderr,
                     "msplog_inspect: warning: archive segment %s [%llu, %llu) "
                     "reaches past the live image end %llu\n",
                     e.path.c_str(), (unsigned long long)e.base,
                     (unsigned long long)(e.base + seg_bytes.size()),
                     (unsigned long long)bytes.size());
      }
      wst = disk.WriteAt(file, e.base, seg_bytes);
      if (!wst.ok()) {
        std::fprintf(stderr, "msplog_inspect: overlay failed: %s\n",
                     wst.ToString().c_str());
        return 2;
      }
      ++archive_segments;
    }
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

  if (self_check) {
    if (report.records == 0) {
      std::fprintf(stderr, "msplog_inspect: self-check FAILED: no records\n");
      return 1;
    }
    if (!report.invariant_violations.empty()) {
      std::fprintf(stderr,
                   "msplog_inspect: self-check FAILED: %zu invariant "
                   "violation(s)\n",
                   report.invariant_violations.size());
      return 1;
    }
    std::printf("self-check OK: %llu records, %llu archive segment(s), "
                "0 violations\n",
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(report.archive_segments));
  }
  return 0;
}
