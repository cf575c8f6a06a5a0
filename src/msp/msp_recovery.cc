// Recovery processing (§4): the CrashRecovery wrapper over the phased
// RecoveryCoordinator (analysis scan + open + background drain live in
// recovery_coordinator.cc), per-session replay, and session orphan recovery
// (replay from the latest checkpoint along the position stream, EOS cut at
// the orphan log record, live continuation).
#include <algorithm>

#include "audit/invariants.h"
#include "audit/mutex.h"
#include "log/log_scanner.h"
#include "msp/exec_context.h"
#include "msp/msp.h"
#include "msp/recovery_coordinator.h"

namespace msplog {

obs::RecoveryTimeline Msp::LastRecoveryTimeline() const {
  audit::LockGuard lk(timeline_mu_);
  return last_recovery_timeline_;
}

Status Msp::CrashRecovery() {
  // Thin wrapper over the phased coordinator (recovery_coordinator.h):
  // analysis + open here, synchronously, so Start() can accept traffic the
  // moment this returns; the per-session replay drain is kicked off by
  // Start() after the mailbox is live (BeginBackgroundDrain) and raced by
  // on-demand admissions (HandleRequestMsg).
  recovery_coordinator_ = std::make_unique<RecoveryCoordinator>(this);
  MSPLOG_RETURN_IF_ERROR(recovery_coordinator_->RunAnalysis());
  return recovery_coordinator_->PrepareOpen();
}

void Msp::SessionRecoveryTask(std::shared_ptr<Session> s, bool on_demand) {
  {
    // Claim the session: background drain, on-demand admission, and (via
    // RecoverSessionReplay's own claim) lazy orphan recovery may race to
    // replay it; exactly one wins, the rest no-op.
    audit::LockGuard lk(sessions_mu_);
    if (!s->recovering || s->replay_claimed) return;
    s->replay_claimed = true;
  }
  if (on_demand) {
    audit::LockGuard lk(timeline_mu_);
    ++last_recovery_timeline_.on_demand_replays;
  }
  (void)RecoverSessionReplay(s.get(), /*from_crash=*/true);
  recovery_coordinator_->OnSessionReplayed();
}

Status Msp::RecoverSessionReplay(Session* s, bool from_crash) {
  {
    audit::LockGuard lk(sessions_mu_);
    s->recovering = true;
    // Also claim: blocks the admission gate from spawning a concurrent
    // on-demand replay while a lazy orphan recovery owns the session.
    s->replay_claimed = true;
  }
  const double replay_t0 = env_->NowModelMs();
  env_->tracer().Record(obs::TraceEventType::kReplayStart, replay_t0,
                        config_.id, s->id, /*seqno=*/0,
                        from_crash ? "crash" : "orphan");
  const uint32_t parallel_now = active_replays_.fetch_add(1) + 1;
  {
    audit::LockGuard lk(timeline_mu_);
    if (parallel_now > last_recovery_timeline_.max_parallel_replays) {
      last_recovery_timeline_.max_parallel_replays = parallel_now;
    }
  }
  // The analysis scan's bytes, while this recovery still holds them; this
  // reference keeps them alive to the end of the replay.
  const std::shared_ptr<const ScanImage> image =
      recovery_coordinator_ ? recovery_coordinator_->image() : nullptr;
  // Delta over this replay distinguishes a clean "replayed" fate from an
  // "orphaned" one in the outage view (the field is owner-thread only,
  // and this thread owns the session for the duration of the replay).
  const uint64_t orphan_cuts_before = s->orphan_cuts;
  obs::RecoveryTimeline::SessionReplay rep;
  rep.session_id = s->id;
  rep.from_crash = from_crash;
  Status st = Status::OK();
  while (true) {
    if (++rep.rounds > 64) {
      st = Status::Internal("session recovery did not converge");
      break;
    }
    // Each pass overwrites the provenance; the final converged pass is the
    // one that actually rebuilt the session, which is what we keep.
    st = ReplayOnce(s, image.get(), &rep);
    if (st.IsOrphan()) continue;  // orphaned again mid-replay: start over
    if (!st.ok()) break;
    // §4.1 "Orphan Recovery upon Multiple Crashes": another crash may have
    // arrived while we replayed; re-check before declaring victory.
    if (SessionIsOrphan(s)) continue;
    break;
  }
  active_replays_.fetch_sub(1);
  PublishDv(s);
  if (from_crash) {
    // Count the recovery BEFORE the session becomes servable again (reply
    // resend / worker arming below): an observer that just completed a
    // round trip against the recovered session must see the counter.
    env_->stats().sessions_recovered.fetch_add(1);
  }
  // Replay legitimately rewinds the DV; re-arm the monotonicity shadow at the
  // new baseline, and cross-check that no surviving dependency points at a
  // state number the recovered-state table proves lost (Theorem 4.2).
  s->audit_shadow_dv = s->dv;
  if (st.ok()) {
    audit::CheckRecoveredDominates("session " + s->id,
                                   SnapshotRecoveredTable(), config_.id,
                                   epoch_.load(), s->dv);
  }
  // The session is servable again: the one write of this replay's result.
  rep.servable_at_ms = env_->NowModelMs();
  rep.replay_ms = rep.servable_at_ms - replay_t0;
  rep.converged = st.ok();
  rep.cut_eos = s->orphan_cuts > orphan_cuts_before;
  hist_replay_ms_->Record(rep.replay_ms);
  env_->tracer().Record(obs::TraceEventType::kReplayEnd, rep.servable_at_ms,
                        config_.id, s->id, /*seqno=*/0,
                        "replayed=" + std::to_string(rep.requests_replayed));
  {
    audit::LockGuard lk(timeline_mu_);
    last_recovery_timeline_.session_replays.push_back(std::move(rep));
  }
  // The client may still be waiting for the reply of the last request —
  // resend it (duplicate replies are discarded by receivers).
  if (st.ok() && s->buffered_reply.valid && !s->ended) {
    Status rst = SendReply(s, s->buffered_reply.code,
                           s->buffered_reply.payload, s->buffered_reply.seqno);
    if (rst.IsOrphan()) {
      // Rare: orphaned between the convergence check and the resend flush.
      audit::LockGuard lk(sessions_mu_);
      s->needs_orphan_check = true;
    }
  }
  bool arm = false;
  {
    audit::LockGuard lk(sessions_mu_);
    s->recovering = false;
    s->replay_claimed = false;
    if ((!s->pending_requests.empty() || s->needs_orphan_check ||
         s->needs_checkpoint) &&
        !s->worker_active) {
      s->worker_active = true;
      arm = true;
    }
  }
  if (arm) {
    auto sp = GetSession(s->id);
    if (sp) pool_->Submit([this, sp] { SessionWorker(sp); });
  }
  return st;
}

Status Msp::ReplayOnce(Session* s, const ScanImage* image,
                       obs::RecoveryTimeline::SessionReplay* rep) {
  // 1. Initialize from the most recent session checkpoint (§4.1).
  uint64_t cp_lsn = s->last_checkpoint_lsn.load();
  rep->records.clear();
  rep->log_records_consumed = 0;
  rep->session_checkpoint_lsn = cp_lsn;
  if (cp_lsn != 0) {
    LogRecord cp;
    MSPLOG_RETURN_IF_ERROR(image != nullptr && image->Holds(cp_lsn)
                               ? image->ReadRecordAt(cp_lsn, &cp)
                               : log_->ReadRecordAt(cp_lsn, &cp));
    if (cp.type != LogRecordType::kSessionCheckpoint) {
      return Status::Corruption("expected session checkpoint at " +
                                std::to_string(cp_lsn));
    }
    MSPLOG_RETURN_IF_ERROR(s->DecodeCheckpoint(cp.payload));
  } else {
    s->vars.clear();
    s->dv.Clear();
    s->state_number = 0;
    s->next_expected_seqno = 1;
    s->buffered_reply = BufferedReply();
    s->outgoing.clear();
  }

  // 2. Redo recovery: replay logged requests along the position stream.
  ReplayCursor cursor(log_.get(), s->positions.All(), image);
  // Every exit path stamps how far along the stream this pass got.
  auto done = [&](Status st) {
    rep->log_records_consumed = cursor.consumed();
    return st;
  };
  while (cursor.HasNext()) {
    LogRecord rec;
    MSPLOG_RETURN_IF_ERROR(done(cursor.Peek(&rec)));
    if (rec.has_dv && DvIsOrphan(rec.dv)) {
      // The session became an orphan by receiving this request: skip it and
      // everything after; the sender will resend after its own recovery.
      OrphanCut(s, rec.lsn);
      return done(Status::OK());
    }
    if (rec.type != LogRecordType::kRequestReceive) {
      env_->stats().replay_misalignments.fetch_add(1);
      return done(Status::Internal(
          "position stream misaligned: expected RequestReceive, found " +
          std::string(LogRecordTypeName(rec.type)) + " at " +
          std::to_string(rec.lsn)));
    }
    cursor.Skip();
    AdoptReplayedRecord(s, rec);
    s->next_expected_seqno = rec.seqno;
    rep->records.push_back({epoch_.load(), rec.seqno, rec.lsn});

    ExecContext ctx(this, s, ExecContext::Mode::kReplay, rec.seqno, &cursor);
    Bytes result;
    Status st = InvokeMethod(rec.target, &ctx, rec.payload, &result);
    env_->stats().requests_replayed.fetch_add(1);
    ++rep->requests_replayed;
    if (st.IsOrphan() || st.IsCrashed() || st.IsTimedOut()) return done(st);

    ReplyCode code = st.ok() ? ReplyCode::kOk : ReplyCode::kAppError;
    Bytes payload = st.ok() ? std::move(result) : Bytes(st.ToString());
    s->buffered_reply = {true, rec.seqno, code, payload};
    s->next_expected_seqno = rec.seqno + 1;

    if (ctx.switched_live()) {
      // The request was in flight when the log ended (or the cut happened):
      // its execution just completed for real, so the reply must go out.
      Status rst = SendReply(s, code, payload, rec.seqno);
      if (rst.IsOrphan()) return done(rst);
      MSPLOG_RETURN_IF_ERROR(done(rst));
      // Anything after the switch point is gone (cut) or did not exist.
      return done(Status::OK());
    }
  }
  return done(Status::OK());
}

void Msp::AdoptReplayedRecord(Session* s, const LogRecord& rec) {
  s->state_number = rec.lsn;
  s->dv.Set(config_.id, StateId{epoch_.load(), rec.lsn});
  if (rec.has_dv) s->dv.Merge(rec.dv);
}

void Msp::OrphanCut(Session* s, uint64_t orphan_lsn) {
  // §4.1 "Orphan Recovery End": write an EOS record pointing back to the
  // orphan log record and make the skipped range invisible to any future
  // recovery of this session. The EOS need not be flushed; if it is lost in
  // a crash, everything from the orphan record onward is skipped anyway.
  LogRecord eos;
  eos.type = LogRecordType::kEos;
  eos.session_id = s->id;
  eos.prev_lsn = orphan_lsn;
  log_->Append(eos);
  s->positions.RemoveRange(orphan_lsn, UINT64_MAX);
  ++s->orphan_cuts;
  env_->tracer().Record(obs::TraceEventType::kOrphanCut, env_->NowModelMs(),
                        config_.id, s->id, /*seqno=*/0,
                        "orphan_lsn=" + std::to_string(orphan_lsn));
  audit::LockGuard lk(timeline_mu_);
  ++last_recovery_timeline_.orphan_events;
}

}  // namespace msplog
