// PositionStream (§3.2) — per-session list of the positions (LSNs) of the
// session's log records since its latest checkpoint, kept so that a
// session's records can be extracted from the shared physical log without
// rescanning it. The stream lives in memory only: it is truncated to zero
// at each session checkpoint, and after an MSP crash the analysis scan
// (AnalyzeLog) rebuilds it wholesale from the log.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "audit/mutex.h"

namespace msplog {

class PositionStream {
 public:
  /// Record the position of a new log record.
  void Add(uint64_t lsn) {
    audit::LockGuard lk(mu_);
    positions_.push_back(lsn);
  }

  /// All positions currently in the stream, in order.
  std::vector<uint64_t> All() const {
    audit::LockGuard lk(mu_);
    return positions_;
  }

  size_t size() const {
    audit::LockGuard lk(mu_);
    return positions_.size();
  }

  /// Drop every position (session checkpoint).
  void Truncate() {
    audit::LockGuard lk(mu_);
    positions_.clear();
  }

  /// Remove all positions in [from_lsn, to_lsn] — the skip range between an
  /// orphan log record and its EOS record (§4.1).
  void RemoveRange(uint64_t from_lsn, uint64_t to_lsn) {
    audit::LockGuard lk(mu_);
    std::erase_if(positions_,
                  [&](uint64_t p) { return p >= from_lsn && p <= to_lsn; });
  }

  /// Replace the whole stream (crash-recovery reconstruction, §4.3).
  void ReplaceAll(std::vector<uint64_t> positions) {
    audit::LockGuard lk(mu_);
    positions_ = std::move(positions);
  }

 private:
  // The background drain reads size() while a replay may own the session.
  mutable audit::Mutex mu_{"position_stream"};
  std::vector<uint64_t> positions_ GUARDED_BY(mu_);
};

}  // namespace msplog
