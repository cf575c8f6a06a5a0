#include "audit/mutex.h"
#include "log/position_stream.h"

#include <algorithm>

#include "common/serde.h"

namespace msplog {

PositionStream::PositionStream(SimDisk* disk, std::string file,
                               size_t buffer_capacity)
    : disk_(disk), file_(std::move(file)), buffer_capacity_(buffer_capacity) {}

void PositionStream::Add(uint64_t lsn) {
  audit::LockGuard lk(mu_);
  positions_.push_back(lsn);
  if (positions_.size() - persisted_count_ >= buffer_capacity_) {
    FlushBufferLocked();
  }
}

void PositionStream::FlushBufferLocked() {
  mu_.AssertHeld();
  if (persisted_count_ == positions_.size()) return;
  if (file_stale_) {
    disk_->Truncate(file_, 0);
    file_stale_ = false;
  }
  BinaryWriter w;
  for (size_t i = persisted_count_; i < positions_.size(); ++i) {
    w.PutU64(positions_[i]);
  }
  disk_->Append(file_, w.buffer());
  persisted_count_ = positions_.size();
}

std::vector<uint64_t> PositionStream::All() const {
  audit::LockGuard lk(mu_);
  return positions_;
}

size_t PositionStream::size() const {
  audit::LockGuard lk(mu_);
  return positions_.size();
}

void PositionStream::Truncate() {
  audit::LockGuard lk(mu_);
  positions_.clear();
  persisted_count_ = 0;
  file_stale_ = false;
  // audit:allow(blocking-under-lock): memory and file must change together.
  disk_->Truncate(file_, 0);
}

void PositionStream::RemoveRange(uint64_t from_lsn, uint64_t to_lsn) {
  audit::LockGuard lk(mu_);
  positions_.erase(std::remove_if(positions_.begin(), positions_.end(),
                                  [&](uint64_t p) {
                                    return p >= from_lsn && p <= to_lsn;
                                  }),
                   positions_.end());
  // Rewrite the persisted prefix so skipped records stay invisible even if
  // the file is consulted later. Rare operation (orphan recovery end).
  // audit:allow(blocking-under-lock): memory and file must change together.
  disk_->Truncate(file_, 0);
  persisted_count_ = 0;
  file_stale_ = false;
  FlushBufferLocked();
}

void PositionStream::ReplaceAll(std::vector<uint64_t> positions) {
  audit::LockGuard lk(mu_);
  positions_ = std::move(positions);
  persisted_count_ = 0;  // re-persisted lazily as the buffer refills
  file_stale_ = true;
}

void PositionStream::Discard() {
  audit::LockGuard lk(mu_);
  positions_.clear();
  persisted_count_ = 0;
  file_stale_ = false;
  // audit:allow(blocking-under-lock): memory and file must change together.
  disk_->Delete(file_);
}

Status PositionStream::LoadPersisted(std::vector<uint64_t>* out) const {
  out->clear();
  size_t count = 0;
  {
    audit::LockGuard lk(mu_);
    count = persisted_count_;
  }
  if (count == 0) return Status::OK();
  Bytes raw;
  MSPLOG_RETURN_IF_ERROR(
      disk_->ReadAt(file_, 0, count * sizeof(uint64_t), &raw));
  BinaryReader r(raw);
  while (!r.AtEnd()) {
    uint64_t v = 0;
    MSPLOG_RETURN_IF_ERROR(r.GetU64(&v));
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace msplog
