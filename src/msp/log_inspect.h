// Offline log/checkpoint inspection (forensics for §3–§4 artifacts): walk a
// physical log image with crash recovery's analysis pass (AnalyzeLog, whose
// session tables feed the per-session checks), decode every checkpoint
// blob, and re-check the structural invariants the online scanner relies
// on — without booting an MSP.
//
// The core is separated from the msplog_inspect CLI so tests can inspect a
// live SimDisk directly while CI runs the CLI over an exported image file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/session_stats.h"
#include "sim/sim_disk.h"

namespace msplog {

struct LogInspectOptions {
  /// Append one line per record to `dump_text`.
  bool dump_records = false;
  /// Also dump decoded session / MSP checkpoint contents.
  bool dump_checkpoints = false;
  /// Reconstruct per-session record/byte/checkpoint stats from the image,
  /// in the same SessionStatsSnapshot shape the live server reports, so
  /// online telemetry and offline forensics diff cleanly.
  bool collect_session_stats = false;
};

/// What the walk found. `invariant_violations` is the offline re-check of
/// the scanner's structural invariants:
///   * LSNs strictly increase in scan order;
///   * per session, kRequestReceive seqnos never decrease — except inside
///     an EOS-cut range, which recovery made invisible (§4.1);
///   * kSharedWrite backward chains point strictly backward;
///   * kEos points at or before itself;
///   * session checkpoint blobs decode;
///   * MSP checkpoint blobs decode and imply a scan start at or before
///     themselves;
///   * the first surviving record sits at or before the newest MSP
///     checkpoint's min-recovery LSN — reclamation (hole punch) and
///     archiving both stop strictly below that position, so a first record
///     *beyond* it means a live session's replay prefix was cut.
///   * no intact frame follows the bad frame the scan stopped at, if any:
///     an intact one there is mid-log corruption, not a torn tail.
struct LogInspectReport {
  uint64_t records = 0;
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
  uint64_t image_bytes = 0;          ///< durable extent walked
  std::map<std::string, uint64_t> records_by_type;
  std::map<std::string, uint64_t> records_by_session;
  uint64_t session_checkpoints = 0;
  uint64_t shared_var_checkpoints = 0;
  uint64_t msp_checkpoints = 0;
  /// Min-recovery LSN of the newest (last-in-scan-order) decodable MSP
  /// checkpoint; 0 when the image has none. The "no live session cut"
  /// invariant compares first_lsn against this.
  uint64_t newest_msp_checkpoint_min_lsn = 0;
  /// Archive segments overlaid into the image before the walk (set by the
  /// caller — InspectLogImage itself only sees the merged byte image).
  uint64_t archive_segments = 0;
  /// The scan stopped at a bad frame (CRC mismatch / truncated frame) with
  /// no intact frame after it. A torn tail is normal after a crash, so it
  /// is reported separately rather than as a violation.
  bool torn_tail = false;
  uint64_t torn_tail_lsn = 0;
  /// Mid-log corruption, also a violation: a bad frame at `corrupt_lsn` with
  /// an intact frame at `intact_lsn` after it. 0 when not corrupt.
  uint64_t corrupt_lsn = 0;
  uint64_t intact_lsn = 0;
  std::vector<std::string> invariant_violations;
  /// Per-session reconstruction (populated when
  /// LogInspectOptions::collect_session_stats): requests, nested calls
  /// (reply-receive records, by peer), log records/bytes, checkpoints, and
  /// the last DV width seen — the offline subset of the live telemetry.
  std::vector<obs::SessionStatsSnapshot> session_stats;

  /// Human-readable multi-line summary.
  std::string Summary() const;
  std::string ToJson() const;
};

/// Walk the log image `file` on `disk` from offset 0 through the durable
/// extent. Returns non-OK only for environmental failures (missing file);
/// corrupt frames and invariant violations are reported in `*report`.
/// `dump_text`, when set, receives the per-record dump per `opts`.
Status InspectLogImage(SimDisk* disk, const std::string& file,
                       const LogInspectOptions& opts, LogInspectReport* report,
                       std::string* dump_text = nullptr);

}  // namespace msplog
