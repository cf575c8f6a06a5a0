// LogScanner — the single-threaded analysis scan of crash recovery (§4.3).
// Reads the durable range [start, durable) sequentially in 64 KB chunks (the
// paper notes that 128-sector recovery reads are larger and therefore more
// efficient than the small blocks written by individual flushes), each byte
// exactly once, skipping sector padding and stopping cleanly at the durable
// end or at a corrupt tail. The scanner keeps every byte it reads: after the
// scan, TakeImage() hands them over, so the session replays that follow
// parse their records from memory instead of reading the range again.
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
#include <utility>

#include "common/bytes.h"
#include "common/status.h"
#include "log/log_record.h"
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

}  // namespace msplog
