#include "log/log_scanner.h"

#include <algorithm>

#include "audit/invariants.h"
#include "log/log_file.h"

namespace msplog {

namespace {
constexpr uint64_t kFrameHeaderBytes = 8;  // u32 len + u32 masked crc

/// The length prefix of the frame at `data[off]` (needs 4 bytes).
uint32_t FrameLengthAt(ByteView data, uint64_t off) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(data[off + i]))
           << (8 * i);
  }
  return len;
}
}  // namespace

bool ScanImage::Holds(uint64_t lsn) const {
  if (lsn < base || lsn - base >= bytes.size()) return false;
  const uint64_t off = lsn - base;
  const uint64_t room = bytes.size() - off;
  return room >= kFrameHeaderBytes &&
         FrameLengthAt(bytes, off) <= room - kFrameHeaderBytes;
}

Status ScanImage::ReadRecordAt(uint64_t lsn, LogRecord* out) const {
  ByteView body;
  size_t frame_len = 0;
  Status st = ParseFrame(bytes, lsn - base, &body, &frame_len);
  if (st.IsNotFound()) {
    return Status::Corruption("position points at log padding");
  }
  MSPLOG_RETURN_IF_ERROR(st);
  MSPLOG_RETURN_IF_ERROR(LogRecord::Decode(body, out));
  out->lsn = lsn;
  return Status::OK();
}

LogScanner::LogScanner(SimDisk* disk, std::string file, uint64_t start_lsn,
                       uint64_t durable_size)
    : disk_(disk),
      file_(std::move(file)),
      pos_(start_lsn),
      durable_size_(std::min(durable_size, disk_->FileSize(file_))),
      sector_bytes_(disk_->geometry().sector_bytes) {
  image_.base = start_lsn;
  if (durable_size_ > start_lsn) image_.bytes.reserve(durable_size_ - start_lsn);
}

Status LogScanner::FillTo(uint64_t end) {
  const uint64_t have = image_.base + image_.bytes.size();
  end = std::min(end, durable_size_);
  if (end <= have) return Status::OK();
  const uint64_t want =
      std::min(std::max(end - have, kChunkBytes), durable_size_ - have);
  MSPLOG_RETURN_IF_ERROR(disk_->ReadAt(file_, have, want, &chunk_));
  image_.bytes.append(chunk_);
  return Status::OK();
}

bool LogScanner::ZeroPaddingBeforeBoundary() const {
  const uint64_t gap = sector_bytes_ - pos_ % sector_bytes_;
  if (gap >= kFrameHeaderBytes) return false;
  const uint64_t off = pos_ - image_.base;
  if (off + gap > image_.bytes.size()) return false;
  for (uint64_t i = 0; i < gap; ++i) {
    if (image_.bytes[off + i] != 0) return false;
  }
  return true;
}

Status LogScanner::Next(LogRecord* out) {
  while (true) {
    if (pos_ + kFrameHeaderBytes > durable_size_) {
      return Status::NotFound("end of log");
    }
    MSPLOG_RETURN_IF_ERROR(FillTo(pos_ + kFrameHeaderBytes));
    const uint64_t off = pos_ - image_.base;
    if (image_.bytes.size() < off + kFrameHeaderBytes) {
      return Status::NotFound("end of log");
    }
    // Bring in the whole frame when the durable extent holds it. A length
    // running past the durable end is left for ParseFrame to reject.
    const uint64_t frame_end =
        pos_ + kFrameHeaderBytes + FrameLengthAt(image_.bytes, off);
    if (frame_end <= durable_size_) MSPLOG_RETURN_IF_ERROR(FillTo(frame_end));
    ByteView body;
    size_t frame_len = 0;
    Status st = ParseFrame(image_.bytes, off, &body, &frame_len);
    if (st.IsNotFound() ||
        (st.IsCorruption() && ZeroPaddingBeforeBoundary())) {
      // Padding: skip to the next sector boundary.
      pos_ = (pos_ / sector_bytes_ + 1) * sector_bytes_;
      continue;
    }
    if (st.IsCorruption()) {
      audit::InvariantRegistry::Instance().Note(
          "log.crc-reject",
          file_ + " @" + std::to_string(pos_) + ": " + st.ToString());
    }
    MSPLOG_RETURN_IF_ERROR(st);
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
