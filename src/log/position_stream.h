// PositionStream (§3.2) — per-session list of the positions (LSNs) of the
// session's log records since its latest checkpoint, kept so that a
// session's records can be extracted from the shared physical log without
// rescanning it. Positions accumulate in an in-memory buffer and are
// appended to a small disk file only when the buffer fills, so the normal-
// execution cost is negligible. The stream is truncated to zero at each
// session checkpoint and discarded at session end. After an MSP crash the
// in-memory part is lost and the whole stream is reconstructed by the
// analysis scan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/mutex.h"
#include "common/status.h"
#include "sim/sim_disk.h"

namespace msplog {

class PositionStream {
 public:
  PositionStream(SimDisk* disk, std::string file,
                 size_t buffer_capacity = 1024);

  /// Record the position of a new log record; flushes the position buffer
  /// to disk when it reaches capacity.
  void Add(uint64_t lsn);

  /// All positions currently in the stream (persisted + buffered), in order.
  std::vector<uint64_t> All() const;

  size_t size() const;

  /// Drop every position (session checkpoint): truncates the disk file.
  void Truncate();

  /// Remove all positions in [from_lsn, to_lsn] — the skip range between an
  /// orphan log record and its EOS record (§4.1). Rewrites the disk file.
  void RemoveRange(uint64_t from_lsn, uint64_t to_lsn);

  /// Replace the whole stream (crash-recovery reconstruction, §4.3).
  /// Does not touch the disk file: the stream restarts memory-only, and the
  /// stale file is truncated at the next buffer flush.
  void ReplaceAll(std::vector<uint64_t> positions);

  /// Delete the backing file (session end).
  void Discard();

  /// Read back the prefix of this stream persisted on disk (tests /
  /// fidelity checks).
  Status LoadPersisted(std::vector<uint64_t>* out) const;

 private:
  void FlushBufferLocked() REQUIRES(mu_);

  SimDisk* disk_;
  std::string file_;
  size_t buffer_capacity_;

  mutable audit::Mutex mu_{"position_stream"};
  /// Full stream.
  std::vector<uint64_t> positions_ GUARDED_BY(mu_);
  /// Prefix of positions_ already on disk.
  size_t persisted_count_ GUARDED_BY(mu_) = 0;
  /// The file still holds positions from before ReplaceAll.
  bool file_stale_ GUARDED_BY(mu_) = false;
};

}  // namespace msplog
