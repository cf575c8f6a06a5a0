// LogScanner and AnalyzeLog — crash recovery's single-threaded analysis scan
// (§4.3). LogScanner reads records; AnalyzeLog, built on it, is the one
// analysis pass (ARIES's), whose tables recovery and both offline tools read.
//
// LogScanner reads the durable range [start, durable) sequentially in 64 KB
// chunks (the paper notes that 128-sector recovery reads are larger and
// therefore more efficient than the small blocks written by individual
// flushes), each byte exactly once, skipping sector padding and stopping
// cleanly at the durable end or at a corrupt tail. The scanner keeps every
// byte it reads: after the scan, TakeImage() hands them over, so the
// session replays that follow parse their records from memory instead of
// reading the range again.
//
// Padding is recognised in two shapes. A zero length prefix marks padding
// outright. A flush that ends 1-3 bytes before a sector boundary leaves a
// zero gap shorter than the 4-byte length field, so the length read runs
// into the next sector's first frame and the frame fails to parse. A frame
// that fails to parse less than one frame header (8 bytes) before a sector
// boundary, with only zero bytes up to it, is therefore padding as well:
// the scan skips to the boundary instead of reporting a corrupt tail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "log/log_record.h"
#include "recovery/recovered_state_table.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {

/// The durable log bytes [base, base + bytes.size()) that one scan read.
struct ScanImage {
  uint64_t base = 0;
  Bytes bytes;

  /// True when the whole frame starting at `lsn` lies inside the image.
  bool Holds(uint64_t lsn) const;
  /// Decode the record whose frame starts at `lsn`, CRC-checked like a disk
  /// read. Requires Holds(lsn); a position at padding is Corruption.
  Status ReadRecordAt(uint64_t lsn, LogRecord* out) const;
};

class LogScanner {
 public:
  static constexpr uint64_t kChunkBytes = 64 * 1024;

  /// Scan `file` on `disk` starting at `start_lsn`. Only data below
  /// `durable_size` (typically the file size at recovery time) is visible.
  LogScanner(SimDisk* disk, std::string file, uint64_t start_lsn,
             uint64_t durable_size);

  /// Advance to the next record. Returns:
  ///   OK         — `*out` holds the record (lsn set);
  ///   NotFound   — clean end of log;
  ///   Corruption — damaged record (scan cannot continue past it).
  Status Next(LogRecord* out);

  /// LSN one past the last successfully returned record's frame.
  uint64_t next_lsn() const { return pos_; }

  /// Hand over the bytes read so far, from `start_lsn` on, by move. Call
  /// after the scan; the scanner must not be used afterwards.
  ScanImage TakeImage() { return std::move(image_); }

 private:
  /// Read on from the end of the image until it reaches `end` (capped at the
  /// durable size): one read of at least kChunkBytes.
  Status FillTo(uint64_t end);
  /// True when fewer than 8 bytes (one frame header) remain before the next
  /// sector boundary and all of them are zero: padding, not a frame.
  bool ZeroPaddingBeforeBoundary() const;

  SimDisk* disk_;
  std::string file_;
  uint64_t pos_;
  uint64_t durable_size_;
  uint32_t sector_bytes_;
  /// Everything read so far, contiguous from `start_lsn`; reserved up front
  /// for the whole range.
  ScanImage image_;
  /// The latest read, appended to `image_` (a reused buffer).
  Bytes chunk_;
  /// End offset of the last frame Next() returned; the auditor checks the
  /// scan never yields a record below it (log-scan-monotonic).
  uint64_t last_returned_end_ = 0;
};

// AnalyzeLog's session rule, the same for all three readers:
//   * kSessionStart, kRequestReceive, kSharedRead, kReplyReceive,
//     kSessionCheckpoint and kSessionEnd belong to the session they name;
//     the first of them creates the session's entry;
//   * after a kSessionEnd the session's next such record starts a fresh
//     entry (`restarted`): nothing of the ended incarnation carries over;
//   * a kEos cuts the entry it names and never creates one;
//   * a kSharedWrite names its writer for attribution only: it belongs to
//     its variable and touches no session entry.

/// One session's share of the analysed range.
struct SessionAnalysis {
  struct Request { uint64_t seqno = 0, lsn = 0; };
  /// Replay skips the session's records in [from_lsn, to_lsn] (§4.1).
  struct Cut { uint64_t from_lsn = 0, to_lsn = 0; };

  std::string client;           ///< first kSessionStart's target, or empty
  uint64_t first_lsn = 0;       ///< the entry's first record
  uint64_t start_lsn = 0;       ///< newest kSessionStart; 0 if none
  uint64_t checkpoint_lsn = 0;  ///< newest kSessionCheckpoint; 0 if none
  /// Request, shared-read and reply-receive records after `checkpoint_lsn`,
  /// EOS ranges removed: the replay work-list.
  std::vector<uint64_t> positions;
  std::vector<Request> requests;  ///< every kRequestReceive
  std::vector<Cut> cuts;          ///< every kEos; to_lsn is the kEos itself
  bool restarted = false;  ///< the entry began after an in-range kSessionEnd
  bool ended = false;      ///< the entry's last record is a kSessionEnd
};

struct VarAnalysis {
  uint64_t last_lsn = 0;  ///< newest kSharedWrite or kSharedVarCheckpoint
  uint64_t last_checkpoint_lsn = 0;  ///< newest kSharedVarCheckpoint, or 0
};

/// How the range ends: at the durable end, or at a bad frame that is either
/// a torn tail (no intact frame after it) or mid-log corruption.
enum class LogEnd : uint8_t { kClean, kTornTail, kCorrupt };

struct LogAnalysis {
  std::map<std::string, SessionAnalysis> sessions;
  std::map<std::string, VarAnalysis> vars;
  RecoveredStateTable recovered;  ///< every kRecoveredState record
  uint64_t records = 0;
  LogEnd end = LogEnd::kClean;
  uint64_t end_lsn = 0;     ///< where the scan stopped: the bad frame, if any
  uint64_t intact_lsn = 0;  ///< kCorrupt: a later sector holding a frame
  ScanImage image;          ///< the bytes read, for the replays that follow
};

/// Sees every intact record in log order, with its on-log footprint.
using LogVisitor =
    std::function<void(const LogRecord& rec, uint64_t frame_bytes)>;

/// The one analysis pass over [start_lsn, durable) of `file`. A bad frame
/// ends the range; only then is the rest read, to probe the later sector
/// boundaries — where every arena of the log starts a frame — for an intact
/// one. Non-OK only for a failed disk read.
Status AnalyzeLog(SimDisk* disk, const std::string& file, uint64_t start_lsn,
                  uint64_t durable, LogAnalysis* out,
                  const LogVisitor& visit = nullptr);

}  // namespace msplog
