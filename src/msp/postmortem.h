// Offline outage post-mortem (forensics for the §4 crash/recovery story):
// given the flight recorder's frozen pre-crash facts — which sessions were
// in flight and how far the log was durable when the MSP died — re-derive
// every session's fate (replayed / orphaned / never-logged) from nothing
// but the raw log image, using the same analysis pass crash recovery runs
// (AnalyzeLog, log/log_scanner.h) and its session tables.
//
// The derivation is intentionally independent of the live recovery record
// (obs/recovery_timeline.h): the log itself is the ground truth, so the two
// paths cross-check each other. The core is separated from the
// msplog_postmortem CLI so tests can run it in-process against a live
// SimDisk while CI runs the CLI over a dumped bundle + exported image file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/sim_disk.h"

namespace msplog {

/// The pre-crash facts a post-mortem needs, normally lifted from a frozen
/// FlightBundle (the crashed actor's snapshot therein).
struct PostmortemInput {
  std::string actor;               ///< crashed MSP id (labeling only)
  uint64_t generation = 0;         ///< crash generation (labeling only)
  double crash_model_ms = 0;       ///< bundle frozen_at_ms (labeling only)
  /// Durable extent of the log at the instant of the crash: records at
  /// LSN >= this were written by post-crash recovery, not by the dead epoch.
  uint64_t durable_at_crash = 0;
  std::vector<std::string> inflight_sessions;
};

/// One in-flight session's offline verdict.
struct PostmortemSessionFate {
  std::string session_id;
  /// "replayed" | "orphaned" | "never-logged" (same taxonomy as the live
  /// obs::OutageReport, minus "pending" — the log never leaves a fate open).
  std::string fate;
  uint64_t first_lsn = 0;            ///< earliest durable record, 0 if none
  uint64_t requests_logged = 0;      ///< kRequestReceive below the crash point
  uint64_t eos_cuts_after_crash = 0; ///< EOS records at/after the crash point
};

struct PostmortemReport {
  std::string actor;
  uint64_t generation = 0;
  double crash_model_ms = 0;
  uint64_t durable_at_crash = 0;
  uint64_t records_scanned = 0;
  uint64_t image_bytes = 0;  ///< durable extent walked
  std::vector<PostmortemSessionFate> sessions;

  const PostmortemSessionFate* Find(const std::string& session_id) const;
  /// Human-readable multi-line summary.
  std::string Summary() const;
  std::string ToJson() const;
};

/// Analyse the log image `file` on `disk` from offset 0 through the durable
/// extent and classify every session named in `in.inflight_sessions` by
/// its session entry (the newest incarnation, per AnalyzeLog's rule):
///   * never-logged — the entry has no record below `durable_at_crash`:
///     the crash erased the session entirely; the client's work never
///     reached the disk.
///   * orphaned — the session has a durable trace AND recovery wrote an EOS
///     cut for it at/after the crash point: part of its in-flight work was
///     discarded as an orphan (§4.1).
///   * replayed — the session has a durable trace and no post-crash cut:
///     replay rebuilt it cleanly.
/// Returns non-OK only for environmental failures (missing file); a bad
/// frame ends the walk cleanly, exactly as it ends recovery's scan.
Status DerivePostmortem(SimDisk* disk, const std::string& file,
                        const PostmortemInput& in, PostmortemReport* report);

}  // namespace msplog
