#include "log/log_scanner.h"

#include <algorithm>

#include "audit/invariants.h"
#include "common/crc32c.h"
#include "log/log_file.h"

namespace msplog {

LogScanner::LogScanner(SimDisk* disk, std::string file, uint64_t start_lsn,
                       uint64_t durable_size)
    : disk_(disk),
      file_(std::move(file)),
      pos_(start_lsn),
      durable_size_(std::min(durable_size, disk_->FileSize(file_))),
      sector_bytes_(disk_->geometry().sector_bytes) {}

Status LogScanner::FillTo(uint64_t end) {
  // Ensure chunk_ covers [pos_, end). Reads in kChunkBytes units.
  if (pos_ >= chunk_base_ && end <= chunk_base_ + chunk_.size()) {
    return Status::OK();
  }
  chunk_base_ = pos_;
  uint64_t want = std::max<uint64_t>(end - pos_, kChunkBytes);
  want = std::min(want, durable_size_ - pos_);
  return disk_->ReadAt(file_, chunk_base_, want, &chunk_);
}

bool LogScanner::ZeroPaddingBeforeBoundary() const {
  const uint64_t gap = sector_bytes_ - pos_ % sector_bytes_;
  if (gap >= 8) return false;
  const uint64_t off = pos_ - chunk_base_;
  if (off + gap > chunk_.size()) return false;
  for (uint64_t i = 0; i < gap; ++i) {
    if (chunk_[off + i] != 0) return false;
  }
  return true;
}

Status LogScanner::Next(LogRecord* out) {
  while (true) {
    if (pos_ + 8 > durable_size_) return Status::NotFound("end of log");
    MSPLOG_RETURN_IF_ERROR(FillTo(pos_ + 8));
    if (chunk_.size() < pos_ - chunk_base_ + 8) {
      return Status::NotFound("end of log");
    }
    ByteView view(chunk_);
    ByteView body;
    size_t frame_len = 0;
    Status st = ParseFrame(view, pos_ - chunk_base_, &body, &frame_len);
    if (st.IsNotFound()) {
      // Padding: skip to the next sector boundary.
      pos_ = (pos_ / sector_bytes_ + 1) * sector_bytes_;
      continue;
    }
    if (st.IsCorruption()) {
      // The frame may just straddle the chunk edge; refill from pos_ and
      // retry once with the full remaining extent.
      uint64_t len_hint = 0;
      if (pos_ - chunk_base_ + 4 <= chunk_.size()) {
        for (int i = 0; i < 4; ++i) {
          len_hint |= static_cast<uint64_t>(static_cast<uint8_t>(
                          chunk_[pos_ - chunk_base_ + i]))
                      << (8 * i);
        }
      }
      uint64_t need_end = pos_ + 8 + len_hint;
      if (need_end <= durable_size_ && need_end > chunk_base_ + chunk_.size()) {
        MSPLOG_RETURN_IF_ERROR(FillTo(need_end));
        st = ParseFrame(ByteView(chunk_), pos_ - chunk_base_, &body,
                        &frame_len);
        if (st.IsNotFound()) {
          pos_ = (pos_ / sector_bytes_ + 1) * sector_bytes_;
          continue;
        }
      }
      if (st.IsCorruption() && ZeroPaddingBeforeBoundary()) {
        pos_ = (pos_ / sector_bytes_ + 1) * sector_bytes_;
        continue;
      }
      if (!st.ok()) {
        if (st.IsCorruption()) {
          audit::InvariantRegistry::Instance().Note(
              "log.crc-reject", file_ + " @" + std::to_string(pos_) + ": " +
                                    st.ToString());
        }
        return st;
      }
    } else if (!st.ok()) {
      if (st.IsCorruption()) {
        audit::InvariantRegistry::Instance().Note(
            "log.crc-reject",
            file_ + " @" + std::to_string(pos_) + ": " + st.ToString());
      }
      return st;
    }
    uint64_t lsn = pos_;
    MSPLOG_RETURN_IF_ERROR(LogRecord::Decode(body, out));
    out->lsn = lsn;
    audit::CheckLsnAdvance("scan " + file_, last_returned_end_, lsn);
    pos_ += frame_len;
    last_returned_end_ = pos_;
    return Status::OK();
  }
}

}  // namespace msplog
