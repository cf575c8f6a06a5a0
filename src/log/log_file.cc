// lint:hot-path
#include "audit/mutex.h"
#include "log/log_file.h"

#include <algorithm>
#include <cassert>

#include "common/crc32c.h"
#include "common/serde.h"

namespace msplog {

namespace {
/// Fresh arenas start small and grow geometrically (quiescent grows only);
/// the working set of a light log stays a few pages.
constexpr size_t kInitialArenaBytes = 64 * 1024;
/// Bound on simultaneously live arenas (active + filled + writing + free):
/// appenders wait (backpressure) rather than allocate past this.
constexpr size_t kMaxArenas = 4;
/// Bound on remembered arena starts (reclaim candidates).
constexpr size_t kMaxArenaStarts = 1024;
/// Largest physical write: the paper's disk takes 1–128 sectors per I/O
/// (§5.2).
constexpr uint64_t kMaxBlockSectors = 128;

void PutU32At(Bytes* buf, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*buf)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU32Raw(char* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32At(ByteView buf, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[pos + i])) << (8 * i);
  }
  return v;
}
}  // namespace

uint32_t FrameBodyLength(ByteView data, size_t pos) {
  return GetU32At(data, pos);
}

Bytes FrameRecord(ByteView body) {
  Bytes frame(kFrameHeaderBytes, '\0');
  PutU32At(&frame, 0, static_cast<uint32_t>(body.size()));
  PutU32At(&frame, 4, crc32c::Mask(crc32c::Compute(body)));
  frame.append(body.data(), body.size());
  return frame;
}

Status ParseFrame(ByteView data, size_t pos, ByteView* body_out,
                  size_t* frame_len) {
  if (pos + kFrameHeaderBytes > data.size()) {
    return Status::Corruption("truncated frame header");
  }
  uint32_t len = FrameBodyLength(data, pos);
  if (len == 0) return Status::NotFound("padding");
  if (pos + kFrameHeaderBytes + len > data.size()) {
    return Status::Corruption("truncated frame body");
  }
  uint32_t stored = crc32c::Unmask(GetU32At(data, pos + 4));
  ByteView body = data.substr(pos + kFrameHeaderBytes, len);
  if (crc32c::Compute(body) != stored) {
    return Status::Corruption("frame CRC mismatch");
  }
  *body_out = body;
  *frame_len = kFrameHeaderBytes + len;
  return Status::OK();
}

Status DecodeFrameAt(ByteView data, size_t pos, uint64_t lsn, LogRecord* out) {
  ByteView body;
  size_t frame_len = 0;
  Status st = ParseFrame(data, pos, &body, &frame_len);
  if (st.IsNotFound()) return Status::Corruption("position points at padding");
  MSPLOG_RETURN_IF_ERROR(st);
  MSPLOG_RETURN_IF_ERROR(LogRecord::Decode(body, out));
  out->lsn = lsn;
  return Status::OK();
}

LogFile::LogFile(SimEnvironment* env, SimDisk* disk, std::string file_name,
                 LogFileOptions options)
    : env_(env),
      disk_(disk),
      file_name_(std::move(file_name)),
      options_(options),
      sector_bytes_(disk->geometry().sector_bytes) {
  obs::MetricsRegistry& m = env_->metrics();
  hist_append_bytes_ = m.GetHistogram("log.append_bytes");
  hist_flush_wait_ms_ = m.GetHistogram("log.flush_wait_ms");
  hist_flush_batch_bytes_ = m.GetHistogram("log.flush_batch_bytes");
  ctr_arena_backpressure_ = m.GetCounter("log.arena_backpressure_waits");
  // Resume appending after the existing durable extent (sector-aligned).
  // The first sector is reserved so that no record ever has LSN 0 — LSN 0
  // is the "none" sentinel in checkpoints and session metadata. The scanner
  // treats the reserved sector as padding and skips it.
  uint64_t size = disk_->FileSize(file_name_);
  uint64_t aligned = RoundUpToSector(size);
  aligned = std::max<uint64_t>(aligned, sector_bytes_);
  durable_end_.store(aligned, std::memory_order_relaxed);
  active_ = std::make_unique<LogArena>();
  active_->data.resize(kInitialArenaBytes, '\0');
  active_->base = aligned;
  arena_count_ = 1;
  arena_starts_.reserve(kMaxArenaStarts);
  arena_starts_.push_back(aligned);
  completion_hook_id_ = disk_->AddCompletionHook(
      [this](const DiskCompletion& c) {
        if (*c.file != file_name_) return;  // cheap filter, no lock
        OnDiskWrite(c.offset, c.bytes);
      });
  writer_thread_ = std::thread([this] { WriterLoop(); });
}

LogFile::~LogFile() {
  Stop();
  if (completion_hook_id_ >= 0) {
    disk_->RemoveCompletionHook(completion_hook_id_);
  }
}

void LogFile::Stop() {
  {
    audit::LockGuard lk(mu_);
    if (stop_) return;
    stop_ = true;
    FailWaitersLocked(SyncRequest::kFailed, Status::IOError("log stopped"));
    writer_cv_.notify_all();
    arena_cv_.notify_all();
  }
  if (writer_thread_.joinable()) writer_thread_.join();
}

uint64_t LogFile::Append(const LogRecord& rec, size_t* framed_size,
                         const Bytes* dv_wire) {
  const size_t body_size = rec.EncodedSize(dv_wire);
  const size_t frame_size = kFrameHeaderBytes + body_size;
  if (framed_size) *framed_size = frame_size;
  LogArena* arena = nullptr;
  uint64_t lsn = 0;
  char* frame = nullptr;
  {
    audit::UniqueLock lk(mu_);
    arena = ReserveLocked(frame_size, lk);
    lsn = arena->base + arena->reserved;
    frame = &arena->data[arena->reserved];
    arena->reserved += frame_size;
  }
  // Encode straight into the reserved span — no intermediate buffer, no
  // lock held. The span cannot move: the arena grows only when quiescent
  // (committed == reserved) and is drained only after every reservation in
  // it has committed.
  {
    BinaryWriter w(frame + kFrameHeaderBytes, body_size);
    rec.EncodeTo(&w, dv_wire);
    assert(w.size() == body_size);
  }
  PutU32Raw(frame, static_cast<uint32_t>(body_size));
  PutU32Raw(frame + 4,
            crc32c::Mask(crc32c::Compute(
                ByteView(frame + kFrameHeaderBytes, body_size))));
  // Lock-free commit: one seq_cst RMW publishes the encoded span. If we
  // read `sealed == false` here, the seq_cst total order places our add
  // before the seal, so the writer's post-seal predicate read observes it;
  // if we read true and completed the arena, the drain may be waiting on
  // exactly this commit, so we post the notify ourselves.
  const size_t after =
      arena->committed.fetch_add(frame_size, std::memory_order_seq_cst) +
      frame_size;
  if (arena->sealed.load(std::memory_order_seq_cst) &&
      after == arena->sealed_bytes.load(std::memory_order_relaxed)) {
    audit::LockGuard lk(mu_);
    writer_cv_.notify_all();
  }
  env_->stats().log_records_appended.fetch_add(1);
  env_->stats().log_bytes_appended.fetch_add(frame_size);
  hist_append_bytes_->Record(static_cast<double>(frame_size));
  return lsn;
}

LogFile::LogArena* LogFile::ReserveLocked(size_t frame_size,
                                          audit::UniqueLock& lk) {
  for (;;) {
    LogArena* a = active_.get();
    const bool valve = a->reserved >= options_.max_buffer_bytes;
    if (!valve && a->reserved + frame_size <= a->data.size()) {
      return a;
    }
    if (!valve && a->committed.load(std::memory_order_acquire) == a->reserved) {
      // No encoder is mid-flight, so no outstanding span pointers: grow the
      // arena in place (geometric, capped at the valve / one giant frame).
      const uint64_t need = a->reserved + frame_size;
      const uint64_t cap = RoundUpToSector(
          std::max<uint64_t>(options_.max_buffer_bytes, frame_size));
      if (need <= cap) {
        uint64_t grown = std::max<uint64_t>(a->data.size() * 2,
                                            RoundUpToSector(need));
        a->data.resize(std::min(grown, cap), '\0');
        continue;
      }
    }
    // Rotation needed. Backpressure first (never leave active_ sealed while
    // waiting: other appenders keep hitting this same path and wait too).
    if (free_arenas_.empty() && arena_count_ >= kMaxArenas &&
        !crashed_.load(std::memory_order_relaxed)) {
      ctr_arena_backpressure_->Add(1);
      drain_requested_ = true;
      writer_cv_.notify_all();
      arena_cv_.wait(lk, [&] {
        mu_.AssertHeld();
        return !free_arenas_.empty() || arena_count_ < kMaxArenas ||
               crashed_.load(std::memory_order_relaxed);
      });
      continue;  // world changed: re-evaluate from scratch
    }
    SealActiveLocked();
    InstallFreshActiveLocked(
        filled_.back()->base + filled_.back()->padded_bytes, frame_size);
  }
}

void LogFile::SealActiveLocked() {
  LogArena* a = active_.get();
  assert(a->reserved > 0 && !a->sealed.load(std::memory_order_relaxed));
  // sealed_bytes before the flag: a lock-free committer reads it only after
  // seeing sealed == true (the seq_cst store below is also a release).
  a->sealed_bytes.store(a->reserved, std::memory_order_relaxed);
  a->padded_bytes = RoundUpToSector(a->reserved);
  a->sealed.store(true, std::memory_order_seq_cst);
  // Zero the pad tail: recycled arenas carry stale bytes, and both the
  // scanner and ReadRecordAt rely on zero length-prefixes marking padding.
  std::fill(a->data.begin() + static_cast<ptrdiff_t>(a->reserved),
            a->data.begin() + static_cast<ptrdiff_t>(a->padded_bytes), '\0');
  env_->stats().disk_bytes_wasted.fetch_add(a->padded_bytes - a->reserved);
  filled_bytes_ += a->padded_bytes;
  filled_.push_back(std::move(active_));
  if (filled_bytes_ >= options_.max_buffer_bytes) drain_requested_ = true;
  writer_cv_.notify_all();
}

void LogFile::InstallFreshActiveLocked(uint64_t base, size_t min_bytes) {
  std::unique_ptr<LogArena> a;
  if (!free_arenas_.empty()) {
    a = std::move(free_arenas_.back());
    free_arenas_.pop_back();
  } else {
    a = std::make_unique<LogArena>();
    ++arena_count_;
  }
  const uint64_t want =
      RoundUpToSector(std::max<uint64_t>(kInitialArenaBytes, min_bytes));
  if (a->data.size() < want) a->data.resize(want, '\0');
  a->base = base;
  a->reserved = 0;
  a->committed.store(0, std::memory_order_relaxed);
  a->sealed.store(false, std::memory_order_relaxed);
  a->sealed_bytes.store(0, std::memory_order_relaxed);
  a->padded_bytes = 0;
  active_ = std::move(a);
}

void LogFile::WriterLoop() {
  audit::UniqueLock lk(mu_);
  for (;;) {
    writer_cv_.wait(lk, [&] {
      mu_.AssertHeld();
      return stop_ || !sync_q_.empty() || drain_requested_;
    });
    if (stop_) return;
    if (crashed_.load(std::memory_order_relaxed)) {
      FailWaitersLocked(SyncRequest::kCrashed, Status::Crashed("log crashed"));
      drain_requested_ = false;
      continue;
    }
    if (options_.batch_flush && !sync_q_.empty()) {
      // Batch window (§5.5): let more flush requests accumulate so they all
      // ride one physical write.
      lk.unlock();
      env_->SleepModelMs(options_.batch_timeout_ms);
      lk.lock();
      if (stop_) return;
      if (crashed_.load(std::memory_order_relaxed)) {
        FailWaitersLocked(SyncRequest::kCrashed,
                          Status::Crashed("log crashed"));
        drain_requested_ = false;
        continue;
      }
    }
    if (!options_.batch_flush && !sync_q_.empty()) {
      // Unbatched cost model (§5.2): the front request owns this physical
      // write; everyone else it covers pays a one-sector barrier.
      sync_q_.front()->owner = true;
    }
    if (active_->reserved > 0 && (drain_requested_ || !sync_q_.empty())) {
      SealActiveLocked();
      InstallFreshActiveLocked(
          filled_.back()->base + filled_.back()->padded_bytes, 0);
    }
    drain_requested_ = false;
    DrainLocked(lk);  // failures are propagated through the waiters
    ResolveWaitersLocked();
  }
}

Status LogFile::DrainLocked(audit::UniqueLock& lk) {
  if (filled_.empty()) return Status::OK();
  // Wait for in-flight encoders of the sealed arenas to commit their spans.
  writer_cv_.wait(lk, [&] {
    mu_.AssertHeld();
    if (stop_ || crashed_.load(std::memory_order_relaxed)) return true;
    for (const auto& a : filled_) {
      // seq_cst pairs with the committers' fetch_add (see Append); the
      // acquire side also makes their encoded bytes visible to the write.
      if (a->committed.load(std::memory_order_seq_cst) !=
          a->sealed_bytes.load(std::memory_order_relaxed)) {
        return false;
      }
    }
    return true;
  });
  if (stop_ || crashed_.load(std::memory_order_relaxed)) {
    return Status::Crashed("log crashed");
  }
  const uint64_t batch_base = filled_.front()->base;
  uint64_t total = 0;
  std::vector<const LogArena*> batch;
  batch.reserve(filled_.size());
  while (!filled_.empty()) {
    filled_bytes_ -= filled_.front()->padded_bytes;
    total += filled_.front()->padded_bytes;
    batch.push_back(filled_.front().get());
    writing_.push_back(std::move(filled_.front()));
    filled_.pop_front();
  }
  // The arenas now sit in writing_: fully committed, mutated by nobody, so
  // the unlocked reads below race with nothing (concurrent ReadRecordAt
  // reads are lock-protected and read-only).
  lk.unlock();
  if (options_.on_physical_write) options_.on_physical_write();
  env_->tracer().Record(obs::TraceEventType::kLocalFlushStart,
                        env_->NowModelMs(), file_name_, /*session=*/"",
                        /*seqno=*/0, "bytes=" + std::to_string(total));
  // Write in blocks of at most kMaxBlockSectors. Each completed block lands
  // in the completion hook, which advances the durable watermark and wakes
  // covered waiters mid-drain.
  const uint64_t max_block_bytes = kMaxBlockSectors * sector_bytes_;
  Status st;
  for (const LogArena* a : batch) {
    for (uint64_t off = 0; st.ok() && off < a->padded_bytes;
         off += max_block_bytes) {
      uint64_t n = std::min<uint64_t>(max_block_bytes, a->padded_bytes - off);
      st = disk_->WriteAt(file_name_, a->base + off,
                          ByteView(a->data.data() + off, n));
    }
    if (!st.ok()) break;
  }
  env_->tracer().Record(obs::TraceEventType::kLocalFlushEnd,
                        env_->NowModelMs(), file_name_);
  hist_flush_batch_bytes_->Record(static_cast<double>(total));
  lk.lock();
  if (st.ok() && !crashed_.load(std::memory_order_relaxed)) {
    // Belt and braces: the completion hook normally advanced the watermark
    // block by block; make sure the full batch is published.
    if (durable_end_.load(std::memory_order_relaxed) < batch_base + total) {
      durable_end_.store(batch_base + total, std::memory_order_release);
    }
    // Each arena's end is where the next one starts.
    for (const LogArena* a : batch) {
      if (arena_starts_.size() == kMaxArenaStarts) ThinArenaStartsLocked();
      arena_starts_.push_back(a->base + a->padded_bytes);
    }
  }
  for (auto& a : writing_) {
    a->reserved = 0;
    a->committed.store(0, std::memory_order_relaxed);
    a->sealed.store(false, std::memory_order_relaxed);
    a->sealed_bytes.store(0, std::memory_order_relaxed);
    a->padded_bytes = 0;
    free_arenas_.push_back(std::move(a));
  }
  writing_.clear();
  arena_cv_.notify_all();
  if (!st.ok()) {
    FailWaitersLocked(SyncRequest::kFailed, st);
    return st;
  }
  return crashed_.load(std::memory_order_relaxed)
             ? Status::Crashed("log crashed")
             : Status::OK();
}

void LogFile::OnDiskWrite(uint64_t offset, uint64_t bytes) {
  audit::LockGuard lk(mu_);
  if (crashed_.load(std::memory_order_relaxed)) return;
  // Contiguity check: the writer drains strictly in LSN order, so each
  // block extends the durable prefix exactly; anything else (an archive
  // copy-back, a foreign writer) must not advance the watermark. Waiters
  // are NOT resolved here — the writer resolves them after the drain so
  // the kLocalFlushStart/End trace pair closes before any dependent event
  // (per-request trace chains rely on that order).
  if (durable_end_.load(std::memory_order_relaxed) == offset) {
    durable_end_.store(offset + bytes, std::memory_order_release);
  }
}

void LogFile::ResolveWaitersLocked() {
  bool woke = false;
  const bool crashed = crashed_.load(std::memory_order_relaxed);
  const uint64_t durable = durable_end_.load(std::memory_order_relaxed);
  for (auto it = sync_q_.begin(); it != sync_q_.end();) {
    SyncRequest* r = it->get();
    if (crashed) {
      r->state = SyncRequest::kCrashed;
      r->error = Status::Crashed("log crashed");
    } else if (durable > r->lsn) {
      r->state = (options_.batch_flush || r->owner) ? SyncRequest::kWritten
                                                    : SyncRequest::kCovered;
    } else {
      ++it;
      continue;
    }
    woke = true;
    it = sync_q_.erase(it);
  }
  if (woke) flush_cv_.notify_all();
}

void LogFile::FailWaitersLocked(SyncRequest::State state,
                                const Status& error) {
  if (sync_q_.empty()) return;
  for (auto& r : sync_q_) {
    r->state = state;
    r->error = error;
  }
  sync_q_.clear();
  flush_cv_.notify_all();
}

Status LogFile::FlushUpTo(uint64_t lsn) {
  double t0 = env_->NowModelMs();
  Status st = FlushUpToImpl(lsn);
  hist_flush_wait_ms_->Record(env_->NowModelMs() - t0);
  return st;
}

Status LogFile::FlushUpToImpl(uint64_t lsn) {
  // Lock-free fast path: ride the durable watermark published by the
  // writer's completion path.
  if (durable_end_.load(std::memory_order_acquire) > lsn) {
    return crashed_.load(std::memory_order_acquire)
               ? Status::Crashed("log crashed")
               : Status::OK();
  }
  std::shared_ptr<SyncRequest> req;
  {
    audit::UniqueLock lk(mu_);
    if (lsn >= active_->base + active_->reserved) {
      return Status::InvalidArgument("flush target beyond log end");
    }
    if (durable_end_.load(std::memory_order_relaxed) > lsn) {
      return crashed_.load(std::memory_order_relaxed)
                 ? Status::Crashed("log crashed")
                 : Status::OK();
    }
    if (crashed_.load(std::memory_order_relaxed)) {
      return Status::Crashed("log crashed");
    }
    if (stop_) return Status::IOError("log stopped");
    req = std::make_shared<SyncRequest>();
    req->lsn = lsn;
    sync_q_.push_back(req);
    writer_cv_.notify_all();
    flush_cv_.wait(lk, [&] {
      mu_.AssertHeld();
      return req->state != SyncRequest::kPending;
    });
  }
  switch (req->state) {
    case SyncRequest::kWritten:
      return Status::OK();
    case SyncRequest::kCovered:
      break;  // pay the barrier below, outside the lock
    case SyncRequest::kCrashed:
      return Status::Crashed("log crashed");
    case SyncRequest::kFailed:
      return req->error;
    case SyncRequest::kPending:
      return Status::Internal("flush waiter woke unresolved");
  }
  // Unbatched (§5.2): someone else's physical write made our records
  // durable while we waited our turn; the sync still pays a one-sector
  // barrier on our own thread — this non-coalescing is what batch flushing
  // (§5.5) removes.
  if (options_.on_physical_write) options_.on_physical_write();
  env_->tracer().Record(obs::TraceEventType::kLocalFlushStart,
                        env_->NowModelMs(), file_name_, /*session=*/"",
                        /*seqno=*/0, "barrier");
  disk_->Barrier(1);
  env_->tracer().Record(obs::TraceEventType::kLocalFlushEnd,
                        env_->NowModelMs(), file_name_);
  return crashed_.load(std::memory_order_acquire)
             ? Status::Crashed("log crashed")
             : Status::OK();
}

Status LogFile::FlushAll() {
  uint64_t end;
  {
    audit::LockGuard lk(mu_);
    end = active_->base + active_->reserved;
  }
  if (end == durable_end_.load(std::memory_order_acquire)) {
    return crashed_.load(std::memory_order_acquire) ? Status::Crashed("")
                                                    : Status::OK();
  }
  return FlushUpTo(end - 1);
}

Status LogFile::ReadRecordAt(uint64_t lsn, LogRecord* out) {
  {
    audit::UniqueLock lk(mu_);
    if (lsn >= active_->base + active_->reserved) {
      return Status::InvalidArgument("LSN beyond log end");
    }
    // Serve from the volatile arenas (active, filled, or mid-write) unless
    // the log crashed — a crash discards volatile content, so post-crash
    // reads must go to disk like a recovering process would.
    if (!crashed_.load(std::memory_order_relaxed)) {
      const LogArena* a = FindArenaLocked(lsn);
      if (a != nullptr) {
        const size_t limit = a->sealed ? a->padded_bytes : a->reserved;
        return DecodeFrameAt(ByteView(a->data.data(), limit), lsn - a->base,
                             lsn, out);
      }
    }
  }
  // Durable region: read the header, then the body it announces (none for
  // padding), and judge the two as one frame.
  Bytes frame;
  MSPLOG_RETURN_IF_ERROR(
      disk_->ReadAt(file_name_, lsn, kFrameHeaderBytes, &frame));
  if (frame.size() == kFrameHeaderBytes) {
    if (const uint32_t len = FrameBodyLength(frame, 0); len > 0) {
      Bytes body;
      MSPLOG_RETURN_IF_ERROR(
          disk_->ReadAt(file_name_, lsn + kFrameHeaderBytes, len, &body));
      frame.append(body);
    }
  }
  return DecodeFrameAt(frame, 0, lsn, out);
}

const LogFile::LogArena* LogFile::FindArenaLocked(uint64_t lsn) const {
  auto covers = [lsn](const LogArena& a) {
    const size_t limit = a.sealed ? a.padded_bytes : a.reserved;
    return lsn >= a.base && lsn < a.base + limit;
  };
  if (covers(*active_)) return active_.get();
  for (const auto& a : filled_) {
    if (covers(*a)) return a.get();
  }
  for (const auto& a : writing_) {
    if (covers(*a)) return a.get();
  }
  return nullptr;
}

uint64_t LogFile::durable_lsn() const {
  return durable_end_.load(std::memory_order_acquire);
}

uint64_t LogFile::end_lsn() const {
  audit::LockGuard lk(mu_);
  return active_->base + active_->reserved;
}

void LogFile::ThinArenaStartsLocked() {
  // Keep every other start: reclaim may then stop further below its target,
  // but still at a frame start.
  size_t kept = 0;
  for (size_t i = 0; i < arena_starts_.size(); i += 2) {
    arena_starts_[kept++] = arena_starts_[i];
  }
  arena_starts_.resize(kept);
}

void LogFile::NoteFrameStarts(const std::vector<uint64_t>& lsns) {
  audit::LockGuard lk(mu_);
  const auto below =
      std::lower_bound(lsns.begin(), lsns.end(), arena_starts_.front());
  arena_starts_.insert(arena_starts_.begin(), lsns.begin(), below);
  while (arena_starts_.size() >= kMaxArenaStarts) ThinArenaStartsLocked();
}

uint64_t LogFile::ReclaimTargetLocked(uint64_t lsn) {
  const uint64_t limit =
      std::min(lsn, durable_end_.load(std::memory_order_acquire));
  auto it = std::upper_bound(arena_starts_.begin(), arena_starts_.end(), limit);
  if (it == arena_starts_.begin()) return 0;
  const uint64_t target = *--it;
  arena_starts_.erase(arena_starts_.begin(), it);
  return target;
}

uint64_t LogFile::ReclaimUpTo(uint64_t lsn) {
  audit::UniqueLock lk(mu_);
  const uint64_t target = ReclaimTargetLocked(lsn);
  if (target <= reclaimed_end_) return 0;
  uint64_t base = reclaimed_end_;
  reclaimed_end_ = target;
  lk.unlock();
  disk_->PunchHole(file_name_, base, target - base);
  return target - base;
}

uint64_t LogFile::reclaimed_lsn() const {
  audit::LockGuard lk(mu_);
  return reclaimed_end_;
}

uint64_t LogFile::ArchiveUpTo(uint64_t lsn) {
  audit::UniqueLock lk(mu_);
  const uint64_t target = ReclaimTargetLocked(lsn);
  if (target <= reclaimed_end_) return 0;
  uint64_t base = reclaimed_end_;
  reclaimed_end_ = target;
  // Claiming the range above makes it ours exclusively: concurrent archive /
  // reclaim calls see the advanced watermark and back off, appends only ever
  // touch the tail, so the copy below races with nothing.
  archived_end_ = target;
  lk.unlock();
  Bytes segment;
  Status st = disk_->ReadAt(file_name_, base, target - base, &segment);
  if (st.ok()) {
    st = disk_->WriteAt(ArchiveSegmentName(file_name_, base), 0, segment);
  }
  if (!st.ok()) {
    // Copy-out failed: keep the live bytes (skip the punch) so no data is
    // lost; the range stays claimed and simply is not preserved.
    audit::LockGuard relk(mu_);
    archived_end_ = std::min(archived_end_, base);
    return 0;
  }
  disk_->PunchHole(file_name_, base, target - base);
  return target - base;
}

LogExtents LogFile::Extents() const {
  audit::LockGuard lk(mu_);
  LogExtents x;
  x.end_lsn = active_->base + active_->reserved;
  x.durable_lsn = durable_end_.load(std::memory_order_relaxed);
  x.reclaimed_lsn = reclaimed_end_;
  x.archived_lsn = archived_end_;
  return x;
}

std::string LogFile::ArchiveSegmentName(const std::string& log_file,
                                        uint64_t base) {
  return log_file + ".arc." + std::to_string(base);
}

std::vector<LogArchiveSegment> LogFile::ListArchiveSegments(
    SimDisk* disk, const std::string& log_file) {
  std::vector<LogArchiveSegment> out;
  const std::string prefix = log_file + ".arc.";
  for (const std::string& f : disk->ListFiles()) {
    if (f.size() <= prefix.size() || f.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string suffix = f.substr(prefix.size());
    if (suffix.find_first_not_of("0123456789") != std::string::npos) continue;
    LogArchiveSegment seg;
    seg.base = std::stoull(suffix);
    seg.bytes = disk->FileSize(f);
    seg.file = f;
    out.push_back(std::move(seg));
  }
  std::sort(out.begin(), out.end(),
            [](const LogArchiveSegment& a, const LogArchiveSegment& b) {
              return a.base < b.base;
            });
  return out;
}

void LogFile::Crash() {
  audit::LockGuard lk(mu_);
  crashed_.store(true, std::memory_order_release);
  // Volatile arenas die. Sealed-but-unwritten arenas park in the graveyard:
  // in-flight encoders may still be committing into them, so their memory
  // must stay alive and unrecycled. The active arena stays installed so
  // post-crash appends still have somewhere to land; nothing ever drains it.
  while (!filled_.empty()) {
    graveyard_.push_back(std::move(filled_.front()));
    filled_.pop_front();
  }
  filled_bytes_ = 0;
  FailWaitersLocked(SyncRequest::kCrashed, Status::Crashed("log crashed"));
  writer_cv_.notify_all();
  arena_cv_.notify_all();
}

}  // namespace msplog
