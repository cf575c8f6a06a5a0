#include "log/log_scanner.h"

#include <algorithm>

#include "audit/invariants.h"
#include "log/log_file.h"

namespace msplog {

bool ScanImage::Holds(uint64_t lsn) const {
  if (lsn < base || lsn - base >= bytes.size()) return false;
  const uint64_t off = lsn - base;
  const uint64_t room = bytes.size() - off;
  return room >= kFrameHeaderBytes &&
         FrameBodyLength(bytes, off) <= room - kFrameHeaderBytes;
}

Status ScanImage::ReadRecordAt(uint64_t lsn, LogRecord* out) const {
  return DecodeFrameAt(bytes, lsn - base, lsn, out);
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
        pos_ + kFrameHeaderBytes + FrameBodyLength(image_.bytes, off);
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

Status AnalyzeLog(SimDisk* disk, const std::string& file, uint64_t start_lsn,
                  uint64_t durable, LogAnalysis* out, const LogVisitor& visit) {
  *out = LogAnalysis();
  // The entry a session record belongs to, per the rule in the header.
  auto session = [out](const LogRecord& rec) -> SessionAnalysis& {
    auto [it, fresh] = out->sessions.try_emplace(rec.session_id);
    SessionAnalysis& s = it->second;
    if (!fresh && s.ended) {
      s = SessionAnalysis();
      s.restarted = fresh = true;
    }
    if (fresh) s.first_lsn = rec.lsn;
    return s;
  };

  LogScanner scanner(disk, file, start_lsn, durable);
  LogRecord rec;  // Decode overwrites every field
  Status st;
  while ((st = scanner.Next(&rec)).ok()) {
    ++out->records;
    if (visit) visit(rec, scanner.next_lsn() - rec.lsn);
    switch (rec.type) {
      case LogRecordType::kSessionStart: {
        SessionAnalysis& s = session(rec);
        s.start_lsn = rec.lsn;
        if (s.client.empty()) s.client = rec.target;
        break;
      }
      case LogRecordType::kRequestReceive:
      case LogRecordType::kSharedRead:
      case LogRecordType::kReplyReceive: {
        SessionAnalysis& s = session(rec);
        s.positions.push_back(rec.lsn);
        if (rec.type == LogRecordType::kRequestReceive) {
          s.requests.push_back({rec.seqno, rec.lsn});
        }
        break;
      }
      case LogRecordType::kSessionCheckpoint: {
        SessionAnalysis& s = session(rec);
        s.checkpoint_lsn = rec.lsn;
        s.positions.clear();
        break;
      }
      case LogRecordType::kSessionEnd:
        session(rec).ended = true;
        break;
      case LogRecordType::kEos: {
        auto it = out->sessions.find(rec.session_id);
        if (it == out->sessions.end()) break;
        it->second.cuts.push_back({rec.prev_lsn, rec.lsn});
        std::erase_if(it->second.positions, [&](uint64_t p) {
          return p >= rec.prev_lsn && p <= rec.lsn;
        });
        break;
      }
      case LogRecordType::kSharedWrite:
        out->vars[rec.var_id].last_lsn = rec.lsn;
        break;
      case LogRecordType::kSharedVarCheckpoint: {
        VarAnalysis& v = out->vars[rec.var_id];
        v.last_lsn = v.last_checkpoint_lsn = rec.lsn;
        break;
      }
      case LogRecordType::kRecoveredState:
        out->recovered.Record(rec.peer, rec.peer_epoch, rec.peer_recovered_sn);
        break;
      default:
        break;  // kMspCheckpoint: recovery reads the anchored one directly
    }
  }
  out->end_lsn = scanner.next_lsn();
  out->image = scanner.TakeImage();
  if (st.IsNotFound()) return Status::OK();
  if (!st.IsCorruption()) return st;
  // A bad frame: read the rest of the range and probe the later sector
  // boundaries, where every arena starts a frame, for an intact one.
  ScanImage& image = out->image;
  const uint64_t end = std::min(durable, disk->FileSize(file));
  const uint64_t have = image.base + image.bytes.size();
  if (end > have) {
    Bytes rest;
    MSPLOG_RETURN_IF_ERROR(disk->ReadAt(file, have, end - have, &rest));
    image.bytes.append(rest);
  }
  const uint32_t sector = disk->geometry().sector_bytes;
  out->end = LogEnd::kTornTail;
  for (uint64_t b = (out->end_lsn / sector + 1) * sector; b < end;
       b += sector) {
    LogRecord probe;
    if (image.ReadRecordAt(b, &probe).ok()) {
      out->end = LogEnd::kCorrupt;
      out->intact_lsn = b;
      break;
    }
  }
  return Status::OK();
}

}  // namespace msplog
