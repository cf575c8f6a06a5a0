// Phased crash recovery (§4.3, instant-restart variant). The analysis and
// open phases here were carved out of the former monolithic
// Msp::CrashRecovery; the background drain replaces the eager
// replay-everything-before-traffic loop in Msp::Start.
#include "msp/recovery_coordinator.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "audit/mutex.h"
#include "log/log_scanner.h"
#include "msp/msp.h"
#include "msp/msp_checkpoint_format.h"

namespace msplog {

Status RecoveryCoordinator::RunAnalysis() {
  Msp* m = msp_;
  const double t0 = m->env_->NowModelMs();
  m->env_->tracer().Record(obs::TraceEventType::kRecoveryStart, t0,
                           m->config_.id);
  const std::string log_file = m->config_.id + ".log";

  // Epoch handling: bump and persist the epoch BEFORE anything else, so a
  // crash during recovery can never reuse a failure-free period identifier.
  AnchorData ad;
  Status ast = m->anchor_.Read(&ad);
  if (ast.ok()) {
    msp_cp_lsn_ = ad.msp_checkpoint_lsn;
    old_epoch_ = ad.epoch;
  } else if (!ast.IsNotFound()) {
    return ast;
  }
  m->epoch_.store(old_epoch_ + 1);
  MSPLOG_RETURN_IF_ERROR(m->anchor_.Write({msp_cp_lsn_, m->epoch_.load()}));

  // Outage observatory join: the facts the crash froze (Msp::CrashLocked)
  // name the sessions that were in flight at the crash, and the session
  // table rebuilt below says which of them left a durable trace. The
  // record keeps these inputs; Outage() computes the fates.
  std::optional<obs::CrashFacts> crash;
  {
    audit::LockGuard lk(m->timeline_mu_);
    crash = m->crash_facts_;
    m->last_recovery_timeline_ = obs::RecoveryTimeline();
    m->last_recovery_timeline_.epoch = m->epoch_.load();
    m->last_recovery_timeline_.started_model_ms = t0;
    m->last_recovery_timeline_.msp_checkpoint_lsn = msp_cp_lsn_;
  }

  // Re-initialize from the most recent MSP checkpoint (Fig. 12).
  uint64_t min_lsn = 0;
  MspCheckpointData data;
  if (msp_cp_lsn_ != 0) {
    LogRecord cp;
    MSPLOG_RETURN_IF_ERROR(m->log_->ReadRecordAt(msp_cp_lsn_, &cp));
    if (cp.type != LogRecordType::kMspCheckpoint) {
      return Status::Corruption("anchor does not point at an MSP checkpoint");
    }
    MSPLOG_RETURN_IF_ERROR(data.Decode(cp.payload));
    audit::LockGuard lk(m->sessions_mu_);
    for (const auto& e : data.sessions) {
      auto s = std::make_shared<Session>(e.id, e.client);
      s->last_checkpoint_lsn.store(e.last_checkpoint_lsn);
      s->first_lsn.store(e.first_lsn);
      m->sessions_[e.id] = s;
    }
    for (const auto& e : data.vars) {
      auto v = m->GetOrCreateSharedVar(e.name);
      v->last_checkpoint_lsn = e.last_checkpoint_lsn;
    }
    min_lsn = data.MinRecoveryLsn(msp_cp_lsn_);
  }

  // Single-threaded analysis scan (§4.3), bounded by the checkpoint's
  // minimum recovery position and the durable extent. Nothing is replayed
  // here; sessions become servable one by one afterwards (on demand or via
  // the background drain). Any bad frame ends the log, torn tail or not.
  // The frames that start on a sector boundary are where the reopened log
  // may stop a reclaim below the point it reopened at.
  const uint64_t durable = m->disk_->FileSize(log_file);
  const uint32_t sector = m->disk_->geometry().sector_bytes;
  LogAnalysis scan;
  std::vector<uint64_t> sector_frames;
  MSPLOG_RETURN_IF_ERROR(AnalyzeLog(
      m->disk_, log_file, min_lsn, durable, &scan,
      [&](const LogRecord& rec, uint64_t) {
        if (rec.lsn % sector == 0) sector_frames.push_back(rec.lsn);
      }));
  m->log_->NoteFrameStarts(sector_frames);
  std::vector<obs::RecoveryTimeline::InflightSession> inflight;

  // Sessions: an in-range end outdates what the MSP checkpoint knew of a
  // session; every other session the scan saw gets its position stream.
  {
    audit::LockGuard lk(m->sessions_mu_);
    for (auto& [id, a] : scan.sessions) {
      if (a.ended || a.restarted) m->sessions_.erase(id);
      if (a.ended) continue;
      std::shared_ptr<Session>& s = m->sessions_[id];
      if (!s) s = std::make_shared<Session>(id, a.client);
      if (s->client.empty()) s->client = a.client;
      if (a.start_lsn != 0) s->first_lsn.store(a.start_lsn);
      if (a.checkpoint_lsn != 0) s->last_checkpoint_lsn.store(a.checkpoint_lsn);
      // Without a checkpoint in range, the MSP checkpoint's one bounds replay.
      const uint64_t cp = s->last_checkpoint_lsn.load();
      std::erase_if(a.positions, [cp](uint64_t p) { return p <= cp; });
      s->positions.ReplaceAll(std::move(a.positions));
    }
    for (auto& [id, s] : m->sessions_) s->recovering = true;
    sessions_to_recover_ = m->sessions_.size();
    if (crash) {
      for (const std::string& id : crash->inflight_sessions) {
        inflight.push_back({id, m->sessions_.count(id) > 0});
      }
    }
  }

  // Roll shared variables forward (§4.3): each ends at its newest write or
  // checkpoint record, which carries the full value.
  for (const auto& [name, a] : scan.vars) {
    LogRecord rec;
    MSPLOG_RETURN_IF_ERROR(scan.image.ReadRecordAt(a.last_lsn, &rec));
    auto v = m->GetOrCreateSharedVar(name);
    audit::SharedUniqueLock vlk(v->rw);
    v->value = std::move(rec.payload);
    v->dv = rec.type == LogRecordType::kSharedWrite ? rec.dv
                                                     : DependencyVector();
    v->state_number = a.last_lsn;
    v->last_write_lsn = a.last_lsn;
    if (a.last_checkpoint_lsn != 0) {
      v->last_checkpoint_lsn = a.last_checkpoint_lsn;
    }
  }

  // The recovered state number for the epoch that just ended: the largest
  // LSN that can still belong to a durable record. `durable` is the
  // EXCLUSIVE end of the durable extent — a record whose frame starts at
  // exactly `durable` was lost, so the boundary itself counts as not
  // recovered.
  const uint64_t recovered_sn = durable > 0 ? durable - 1 : 0;
  {
    audit::LockGuard lk(m->table_mu_);
    m->recovered_table_.Merge(data.table);
    m->recovered_table_.Merge(scan.recovered);
    m->recovered_table_.Record(m->config_.id, old_epoch_, recovered_sn);
  }

  // Keep what the scan read for the replays, so none reads the log again.
  {
    audit::LockGuard lk(mu_);
    replays_left_ = sessions_to_recover_;
    if (replays_left_ > 0) {
      image_ = std::make_shared<const ScanImage>(std::move(scan.image));
    }
  }

  // Analysis phase (§4.3) ends here: the single-threaded scan is done and
  // every session knows its replay positions. What follows — broadcast and
  // the fresh MSP checkpoint — is attributed separately in the timeline.
  const double scan_end_ms = m->env_->NowModelMs();
  m->env_->tracer().Record(obs::TraceEventType::kAnalysisScanEnd, scan_end_ms,
                           m->config_.id, /*session=*/"", /*seqno=*/0,
                           "records=" + std::to_string(scan.records));
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.analysis_scan_ms = scan_end_ms - t0;
    m->last_recovery_timeline_.analysis_records_scanned = scan.records;
    m->last_recovery_timeline_.analysis_bytes_scanned =
        durable > min_lsn ? durable - min_lsn : 0;
    m->last_recovery_timeline_.sessions_to_recover = sessions_to_recover_;
    m->last_recovery_timeline_.scan_start_lsn = min_lsn;
    m->last_recovery_timeline_.scan_end_lsn = durable;
    // The join consumes the facts once the scan has succeeded (a Start()
    // that failed before here is retried with them), so a later graceful
    // restart joins none.
    if (crash) {
      m->crash_facts_.reset();
      m->last_recovery_timeline_.crash_generation = crash->generation;
      m->last_recovery_timeline_.crash_model_ms = crash->frozen_at_ms;
      m->last_recovery_timeline_.inflight = std::move(inflight);
    }
  }
  return Status::OK();
}

Status RecoveryCoordinator::PrepareOpen() {
  Msp* m = msp_;
  // Broadcast the recovery message within the service domain (§4.3). The
  // full own history is included so peers recovering concurrently (or that
  // lost an unflushed kRecoveredState record) still converge.
  std::vector<std::pair<uint32_t, uint64_t>> own_history;
  {
    audit::LockGuard lk(m->table_mu_);
    for (const auto& [key, sn] : m->recovered_table_.entries()) {
      if (key.first == m->config_.id) own_history.push_back({key.second, sn});
    }
  }
  for (const auto& peer : m->directory_->PeersOf(m->config_.id)) {
    for (const auto& [e, sn] : own_history) {
      Message msg;
      msg.type = MessageType::kRecoveryAnnounce;
      msg.sender = m->config_.id;
      msg.rec_epoch = e;
      msg.rec_sn = sn;
      m->network_->Send(m->config_.id, peer, msg.Encode());
    }
  }

  // Fresh MSP checkpoint so the next crash starts from here (Fig. 12).
  // Unit forcing is skipped: peers cannot be flushed to before our
  // dispatcher runs.
  const double cp_t0 = m->env_->NowModelMs();
  MSPLOG_RETURN_IF_ERROR(m->TakeMspCheckpoint(/*force_units=*/false));

  const double end_ms = m->env_->NowModelMs();
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.post_scan_checkpoint_ms = end_ms - cp_t0;
  }
  m->env_->tracer().Record(obs::TraceEventType::kRecoveryEnd, end_ms,
                           m->config_.id, /*session=*/"", /*seqno=*/0,
                           "sessions=" + std::to_string(sessions_to_recover_));
  return Status::OK();
}

void RecoveryCoordinator::BeginBackgroundDrain() {
  Msp* m = msp_;
  const double now = m->env_->NowModelMs();
  {
    audit::LockGuard lk(m->timeline_mu_);
    m->last_recovery_timeline_.open_for_traffic_ms =
        now - m->last_recovery_timeline_.started_model_ms;
  }

  // Priority order: smallest replay work-list first (shortest-job-first —
  // maximizes the rate at which sessions become servable), ties by id for
  // determinism. On-demand admissions override this order naturally.
  struct Entry {
    size_t work;
    std::string id;
  };
  std::vector<Entry> entries;
  {
    audit::LockGuard lk(m->sessions_mu_);
    for (auto& [id, s] : m->sessions_) {
      if (s->recovering && !s->replay_claimed) {
        entries.push_back({s->positions.size(), id});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.work != b.work ? a.work < b.work : a.id < b.id;
  });
  size_t pumps;
  {
    audit::LockGuard lk(mu_);
    for (auto& e : entries) drain_queue_.push_back(std::move(e.id));
    // sequential_recovery is the ablation that replays one session at a
    // time; otherwise drain with the pool's full parallelism (§4.3).
    pumps = m->config_.sequential_recovery
                ? (drain_queue_.empty() ? 0 : 1)
                : std::min(drain_queue_.size(), m->pool_->num_threads());
  }
  for (size_t i = 0; i < pumps; ++i) {
    m->pool_->Submit([this] { DrainStep(); });
  }
}

std::shared_ptr<const ScanImage> RecoveryCoordinator::image() const {
  audit::LockGuard lk(mu_);
  return image_;
}

void RecoveryCoordinator::OnSessionReplayed() {
  audit::LockGuard lk(mu_);
  if (replays_left_ > 0 && --replays_left_ == 0) image_.reset();
}

void RecoveryCoordinator::DrainStep() {
  Msp* m = msp_;
  std::shared_ptr<Session> target;
  while (!target) {
    std::string id;
    {
      audit::LockGuard lk(mu_);
      if (drain_queue_.empty()) return;
      id = std::move(drain_queue_.front());
      drain_queue_.pop_front();
    }
    audit::LockGuard lk(m->sessions_mu_);
    auto it = m->sessions_.find(id);
    // Sessions already claimed (on-demand admission or lazy orphan
    // recovery) or already done are simply skipped.
    if (it != m->sessions_.end() && it->second->recovering &&
        !it->second->replay_claimed) {
      target = it->second;
    }
  }
  m->SessionRecoveryTask(target);
  bool more;
  {
    audit::LockGuard lk(mu_);
    more = !drain_queue_.empty();
  }
  // Resubmit instead of looping: yielding the pool thread between sessions
  // bounds how long an on-demand replay queued behind the drain waits.
  if (more) m->pool_->Submit([this] { DrainStep(); });
}

}  // namespace msplog
