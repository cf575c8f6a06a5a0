#include "msp/exec_context.h"

#include <algorithm>

#include "log/log_scanner.h"

namespace msplog {

// ---------------------------------------------------------------------------
// ReplayCursor
// ---------------------------------------------------------------------------

ReplayCursor::ReplayCursor(LogFile* log, std::vector<uint64_t> positions,
                           const ScanImage* image)
    : log_(log), positions_(std::move(positions)), image_(image) {}

Status ReplayCursor::Peek(LogRecord* out) {
  if (!HasNext()) return Status::NotFound("cursor exhausted");
  uint64_t lsn = positions_[idx_];
  if (cached_ && cached_rec_.lsn == lsn) {
    *out = cached_rec_;
    return Status::OK();
  }
  Status st;
  if (image_ != nullptr && image_->Holds(lsn)) {
    st = image_->ReadRecordAt(lsn, out);
  } else if (lsn >= log_->durable_lsn()) {
    // Still in the volatile buffer: a memory read.
    st = log_->ReadRecordAt(lsn, out);
  } else {
    st = ReadDurable(lsn, out);
  }
  if (st.ok()) {
    cached_ = true;
    cached_rec_ = *out;
  }
  return st;
}

void ReplayCursor::Skip() {
  ++idx_;
  cached_ = false;
}

Status ReplayCursor::ReadDurable(uint64_t lsn, LogRecord* out) {
  SimDisk* disk = log_->disk();
  const std::string& file = log_->file_name();
  auto ensure = [&](uint64_t need_end) -> Status {
    if (chunk_valid_ && lsn >= chunk_base_ &&
        need_end <= chunk_base_ + chunk_.size()) {
      return Status::OK();
    }
    chunk_base_ = lsn;
    uint64_t want = std::max<uint64_t>(LogScanner::kChunkBytes, need_end - lsn);
    MSPLOG_RETURN_IF_ERROR(disk->ReadAt(file, chunk_base_, want, &chunk_));
    chunk_valid_ = true;
    return Status::OK();
  };
  MSPLOG_RETURN_IF_ERROR(ensure(lsn + kFrameHeaderBytes));
  if (chunk_.size() < lsn - chunk_base_ + kFrameHeaderBytes) {
    return Status::Corruption("position beyond durable log");
  }
  // Read the frame length to make sure the whole record is in the chunk.
  const uint32_t len = FrameBodyLength(chunk_, lsn - chunk_base_);
  MSPLOG_RETURN_IF_ERROR(ensure(lsn + kFrameHeaderBytes + len));
  return DecodeFrameAt(chunk_, lsn - chunk_base_, lsn, out);
}

// ---------------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------------

Bytes ExecContext::GetSessionVar(const std::string& name) {
  auto it = s_->vars.find(name);
  return it == s_->vars.end() ? Bytes() : it->second;
}

bool ExecContext::HasSessionVar(const std::string& name) const {
  return s_->vars.count(name) > 0;
}

void ExecContext::SetSessionVar(const std::string& name, ByteView value) {
  // Session variables are never logged (§3.2): deterministic re-execution
  // reconstructs them, so this is identical in every mode.
  s_->vars[name] = Bytes(value);
}

Status ExecContext::NextForReplay(LogRecordType expected,
                                  const std::string& key, LogRecord* rec,
                                  bool* run_live) {
  *run_live = false;
  if (live_) {
    *run_live = true;
    return Status::OK();
  }
  if (!cursor_->HasNext()) {
    // §4.3: the log ends mid-request (its tail was lost in the crash) —
    // re-execution becomes execution from here on.
    live_ = true;
    *run_live = true;
    return Status::OK();
  }
  MSPLOG_RETURN_IF_ERROR(cursor_->Peek(rec));
  if (rec->has_dv && msp_->DvIsOrphan(rec->dv)) {
    // §4.1: the orphan log record ends replay; skip it and everything after,
    // write the EOS record, and continue the interrupted action live.
    msp_->OrphanCut(s_, rec->lsn);
    live_ = true;
    *run_live = true;
    return Status::OK();
  }
  if (rec->type != expected) {
    msp_->env()->stats().replay_misalignments.fetch_add(1);
    return Status::Internal("replay misalignment: expected " +
                            std::string(LogRecordTypeName(expected)) +
                            ", log has " +
                            std::string(LogRecordTypeName(rec->type)));
  }
  if (expected == LogRecordType::kSharedRead && rec->var_id != key) {
    msp_->env()->stats().replay_misalignments.fetch_add(1);
    return Status::Internal("replay misalignment: read of '" + rec->var_id +
                            "' logged, method read '" + key + "'");
  }
  if (expected == LogRecordType::kReplyReceive && rec->target != key) {
    msp_->env()->stats().replay_misalignments.fetch_add(1);
    return Status::Internal("replay misalignment: reply from '" +
                            rec->target + "' logged, method called '" + key +
                            "'");
  }
  cursor_->Skip();
  return Status::OK();
}

Status ExecContext::ReadShared(const std::string& name, Bytes* out) {
  if (mode_ == Mode::kReplay && !live_) {
    LogRecord rec;
    bool run_live = false;
    MSPLOG_RETURN_IF_ERROR(
        NextForReplay(LogRecordType::kSharedRead, name, &rec, &run_live));
    if (!run_live) {
      // §4.1: reading a shared variable gets its value from the log; the
      // session's DV and state number advance exactly as they did during
      // normal execution.
      msp_->AdoptReplayedRecord(s_, rec);
      *out = rec.payload;
      return Status::OK();
    }
  }
  return msp_->SharedReadImpl(s_, name, out);
}

Status ExecContext::WriteShared(const std::string& name, ByteView value) {
  if (mode_ == Mode::kReplay && !live_) {
    // §4.1: writing a shared variable is skipped during replay — the
    // variable has its own separate recovery (roll-forward / undo chain).
    return Status::OK();
  }
  return msp_->SharedWriteImpl(s_, name, value);
}

Status ExecContext::UpdateShared(const std::string& name,
                                 const std::function<Bytes(const Bytes&)>& fn,
                                 Bytes* out) {
  if (mode_ == Mode::kReplay && !live_) {
    LogRecord rec;
    bool run_live = false;
    MSPLOG_RETURN_IF_ERROR(
        NextForReplay(LogRecordType::kSharedRead, name, &rec, &run_live));
    if (!run_live) {
      // Same replay rules as a read followed by a (skipped) write: the
      // deterministic `fn` re-derives the value the method continued with.
      msp_->AdoptReplayedRecord(s_, rec);
      Bytes result = fn(rec.payload);
      if (out) *out = std::move(result);
      return Status::OK();
    }
  }
  return msp_->SharedUpdateImpl(s_, name, fn, out);
}

Status ExecContext::Call(const std::string& target_msp,
                         const std::string& method, ByteView arg,
                         Bytes* reply) {
  if (mode_ == Mode::kReplay && !live_) {
    LogRecord rec;
    bool run_live = false;
    MSPLOG_RETURN_IF_ERROR(NextForReplay(LogRecordType::kReplyReceive,
                                         target_msp, &rec, &run_live));
    if (!run_live) {
      // §4.1: requests to other MSPs are not sent; the reply is read from
      // the log.
      auto& o = s_->outgoing[target_msp];
      if (o.session_id.empty()) {
        o.target = target_msp;
        o.session_id = msp_->config().id + "/" + s_->id + ">" + target_msp;
      }
      o.next_seqno = rec.seqno + 1;
      msp_->AdoptReplayedRecord(s_, rec);
      *reply = rec.payload;
      if (static_cast<ReplyCode>(rec.aux) == ReplyCode::kAppError) {
        return Status::Aborted("remote application error: " + *reply);
      }
      return Status::OK();
    }
  }
  return msp_->OutgoingCallImpl(s_, target_msp, method, arg, reply, span_);
}

void ExecContext::Compute(double model_ms) {
  // Re-execution pays the same CPU cost as normal execution (§5.4).
  msp_->ChargeCpu(model_ms);
}

}  // namespace msplog
