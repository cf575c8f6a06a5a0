#include "audit/mutex.h"
#include "msp/flush_aggregator.h"

#include <algorithm>
#include <utility>

#include "msp/msp_config.h"

namespace msplog {

FlushAggregator::FlushAggregator(SimEnvironment* env, Options opts, SendFn send)
    : env_(env), opts_(std::move(opts)), send_(std::move(send)) {
  obs::MetricsRegistry& m = env_->metrics();
  ctr_legs_ = m.GetCounter("flush.legs_requested");
  ctr_coalesced_ = m.GetCounter("flush.legs_coalesced");
  ctr_msgs_saved_ = m.GetCounter("flush.messages_saved");
  ctr_skips_ = m.GetCounter("flush.watermark_skips");
  ctr_sent_ = m.GetCounter("flush.requests_sent");
  hist_batch_ = m.GetHistogram("flush.flight_batch");
}

std::shared_ptr<FlushWaiter> FlushAggregator::Submit(
    const MspId& peer, StateId id, const std::shared_ptr<FlushCall>& call,
    const obs::SpanContext& parent_span) {
  audit::LockGuard lk(mu_);
  ctr_legs_->Add(1);
  PeerState& ps = peers_[peer];
  // A watermark covers only its own epoch: whether a leg of an ended epoch
  // survived, only the peer's recovered state number can tell.
  if (id.epoch == ps.watermark.epoch && id.sn <= ps.watermark.sn) {
    ctr_skips_->Add(1);
    return nullptr;  // already durable at the peer: no leg needed
  }

  auto w = std::make_shared<FlushWaiter>();
  w->call = call;
  w->peer = peer;
  w->id = id;
  w->span = parent_span;
  {
    audit::LockGuard clk(call->mu);
    ++call->unsettled;
  }

  if (opts_.coalesce && ps.current_flight_id != 0) {
    auto fit = flights_.find(ps.current_flight_id);
    if (fit == flights_.end()) {
      ps.current_flight_id = 0;  // defensive: stale id, fall through
    } else {
      Flight& f = fit->second;
      if (id.epoch == f.target.epoch && id.sn <= f.target.sn) {
        // Ride the in-flight request: its "flush up to" bound covers us, so
        // its completion is ours. No message is sent for this leg.
        w->flight_id = fit->first;
        w->observed_round = f.round;
        f.waiters.push_back(w);
        ctr_coalesced_->Add(1);
        ctr_msgs_saved_->Add(1);
        obs::SpanContext jspan;
        if (f.span.valid()) {
          jspan = {f.span.trace_id, obs::NextSpanId(), f.span.span_id};
        }
        env_->tracer().Record(obs::TraceEventType::kFlushLegJoin,
                              env_->NowModelMs(), opts_.self, /*session=*/"",
                              /*seqno=*/fit->first, "peer=" + peer, jspan);
        return w;
      }
      // Above the open flight's bound (or a different epoch): accumulate.
      // One max-target flight dispatches for the whole queue when the open
      // flight lands.
      if (ps.queued.empty() || ps.queued_target < id) ps.queued_target = id;
      ps.queued.push_back(std::move(w));
      return ps.queued.back();
    }
  }

  std::vector<std::shared_ptr<FlushWaiter>> batch{w};
  LaunchLocked(peer, ps, id, std::move(batch), parent_span);
  return w;
}

void FlushAggregator::LaunchLocked(
    const MspId& peer, PeerState& ps, StateId target,
    std::vector<std::shared_ptr<FlushWaiter>> waiters,
    const obs::SpanContext& parent_span) {
  mu_.AssertHeld();
  uint64_t fid = next_flush_id_++;
  Flight f;
  f.peer = peer;
  f.target = target;
  f.round = 1;
  if (parent_span.valid()) {
    f.span = {parent_span.trace_id, obs::NextSpanId(), parent_span.span_id};
  }

  // The aggregator is the only producer of kFlushRequest messages (lint rule
  // `flush-send`): flush_sn is a "flush up to" bound, so this one message
  // covers every waiter at or below `target`.
  Message fm;
  fm.type = MessageType::kFlushRequest;
  fm.sender = opts_.self;
  fm.flush_id = fid;
  fm.epoch = target.epoch;
  fm.flush_sn = target.sn;
  fm.trace_id = f.span.trace_id;
  fm.parent_span_id = f.span.span_id;
  f.wire = fm.Encode();

  for (auto& w : waiters) {
    w->flight_id = fid;
    w->observed_round = 1;
  }
  f.waiters = std::move(waiters);
  if (opts_.coalesce) ps.current_flight_id = fid;

  env_->tracer().Record(
      obs::TraceEventType::kFlushFlightLaunch, env_->NowModelMs(), opts_.self,
      /*session=*/"", /*seqno=*/fid,
      "peer=" + peer + ";target=" + std::to_string(target.epoch) + ":" +
          std::to_string(target.sn) + ";batch=" +
          std::to_string(f.waiters.size()),
      f.span);
  ctr_sent_->Add(1);
  // SimNetwork::Send never blocks on model time (it schedules delivery), so
  // sending under mu_ is safe and keeps launch decisions atomic.
  send_(peer, f.wire);
  flights_.emplace(fid, std::move(f));
}

void FlushAggregator::LaunchQueuedLocked(const MspId& peer, PeerState& ps) {
  mu_.AssertHeld();
  if (ps.queued.empty()) return;
  // Legs covered by the accumulated maximum fly now; an epoch-mismatched
  // remainder (rare: mixed-epoch dependencies) waits for the next landing.
  StateId target = ps.queued_target;
  std::vector<std::shared_ptr<FlushWaiter>> now, later;
  for (auto& w : ps.queued) {
    if (w->id.epoch == target.epoch && w->id.sn <= target.sn) {
      now.push_back(std::move(w));
    } else {
      later.push_back(std::move(w));
    }
  }
  ps.queued = std::move(later);
  ps.queued_target = StateId{};
  for (const auto& w : ps.queued) {
    if (ps.queued_target < w->id) ps.queued_target = w->id;
  }
  if (now.size() > 1) ctr_msgs_saved_->Add(now.size() - 1);
  obs::SpanContext parent = now.front()->span;
  LaunchLocked(peer, ps, target, std::move(now), parent);
}

void FlushAggregator::HandleReply(const Message& m) {
  audit::LockGuard lk(mu_);
  auto it = flights_.find(m.flush_id);
  if (it == flights_.end()) return;  // stale or duplicate reply
  Flight& f = it->second;

  if (!m.flush_ok && m.rec_epoch == 0) {
    // Non-authoritative failure (epochs start at 1): the peer may be
    // mid-crash; resend and keep waiting for its recovery to answer.
    if (f.round >= kMaxSendRounds) {
      TimeOutFlightLocked(it->first);
      return;
    }
    ++f.round;
    ctr_sent_->Add(1);
    send_(f.peer, f.wire);
    return;
  }

  // Settled (success or authoritative failure): detach the flight, settle
  // every joined leg from this one completion, then dispatch the legs that
  // accumulated behind it.
  Flight done = std::move(f);
  flights_.erase(it);
  PeerState& ps = peers_[done.peer];
  if (ps.current_flight_id == m.flush_id) ps.current_flight_id = 0;
  hist_batch_->Record(static_cast<double>(done.waiters.size()));

  if (m.flush_ok) {
    AdvanceWatermarkLocked(ps, done.target);
    for (auto& w : done.waiters) {
      SettleLocked(w, /*ok=*/true, false, false, 0, 0);
    }
  } else {
    // The peer's epoch ended at (rec_epoch, rec_sn). Legs at or below the
    // recovered state number are durable — exactly what a per-leg request
    // would have been told — and everything above is orphaned with that
    // recovered state number as the witness.
    for (auto& w : done.waiters) {
      if (w->id.epoch == m.rec_epoch && w->id.sn <= m.rec_sn) {
        AdvanceWatermarkLocked(ps, w->id);
        SettleLocked(w, /*ok=*/true, false, false, 0, 0);
      } else {
        SettleLocked(w, /*ok=*/false, false, false, m.rec_epoch, m.rec_sn);
      }
    }
  }
  LaunchQueuedLocked(done.peer, ps);
}

void FlushAggregator::OnWaitTimeout(const std::shared_ptr<FlushWaiter>& w) {
  audit::LockGuard lk(mu_);
  {
    audit::LockGuard clk(w->call->mu);
    if (w->settled) return;
  }
  uint64_t fid = w->flight_id;
  if (fid == 0) {
    // Queued behind the peer's open flight: drive THAT flight — our own
    // request cannot launch until it lands.
    auto pit = peers_.find(w->peer);
    if (pit == peers_.end()) return;
    fid = pit->second.current_flight_id;
  }
  auto it = flights_.find(fid);
  if (it == flights_.end()) return;
  Flight& f = it->second;
  if (w->observed_round != f.round) {
    // The flight progressed (another waiter resent) since this waiter last
    // looked: give the new round a full timeout before resending again.
    w->observed_round = f.round;
    return;
  }
  if (f.round >= kMaxSendRounds) {
    TimeOutFlightLocked(fid);
    return;
  }
  ++f.round;
  w->observed_round = f.round;
  ctr_sent_->Add(1);
  send_(f.peer, f.wire);
}

void FlushAggregator::TimeOutFlightLocked(uint64_t flight_id) {
  mu_.AssertHeld();
  auto it = flights_.find(flight_id);
  if (it == flights_.end()) return;
  Flight dead = std::move(it->second);
  flights_.erase(it);
  PeerState& ps = peers_[dead.peer];
  if (ps.current_flight_id == flight_id) ps.current_flight_id = 0;
  hist_batch_->Record(static_cast<double>(dead.waiters.size()));
  for (auto& w : dead.waiters) {
    SettleLocked(w, /*ok=*/false, /*timed_out=*/true, false, 0, 0);
  }
  LaunchQueuedLocked(dead.peer, ps);
}

void FlushAggregator::Abandon(const std::shared_ptr<FlushWaiter>& w) {
  audit::LockGuard lk(mu_);
  auto drop = [&](std::vector<std::shared_ptr<FlushWaiter>>& v) {
    v.erase(std::remove(v.begin(), v.end(), w), v.end());
  };
  auto pit = peers_.find(w->peer);
  if (pit != peers_.end()) {
    drop(pit->second.queued);
    pit->second.queued_target = StateId{};
    for (const auto& q : pit->second.queued) {
      if (pit->second.queued_target < q->id) pit->second.queued_target = q->id;
    }
  }
  if (w->flight_id != 0) {
    auto it = flights_.find(w->flight_id);
    if (it != flights_.end()) {
      drop(it->second.waiters);
      if (it->second.waiters.empty()) {
        // Nobody is left to claim the outcome: drop the flight (a late
        // reply is ignored as stale) so queued legs are not stuck behind it.
        MspId peer = it->second.peer;
        uint64_t fid = it->first;
        flights_.erase(it);
        PeerState& ps = peers_[peer];
        if (ps.current_flight_id == fid) ps.current_flight_id = 0;
        LaunchQueuedLocked(peer, ps);
      }
    }
  }
  // Keep the call's accounting consistent even though the caller is gone.
  SettleLocked(w, /*ok=*/false, /*timed_out=*/true, false, 0, 0);
}

void FlushAggregator::AdvanceWatermarkLocked(PeerState& ps, StateId id) {
  mu_.AssertHeld();
  if (ps.watermark < id) ps.watermark = id;
}

void FlushAggregator::SettleLocked(const std::shared_ptr<FlushWaiter>& w,
                                   bool ok, bool timed_out, bool crashed,
                                   uint32_t orphan_epoch, uint64_t orphan_sn) {
  mu_.AssertHeld();
  audit::LockGuard clk(w->call->mu);
  if (w->settled) return;
  w->settled = true;
  w->ok = ok;
  w->timed_out = timed_out;
  w->crashed = crashed;
  w->orphan_epoch = orphan_epoch;
  w->orphan_sn = orphan_sn;
  if (!ok) w->call->fatal = true;
  if (w->call->unsettled > 0) --w->call->unsettled;
  w->call->cv.notify_all();
}

void FlushAggregator::FailAll() {
  audit::LockGuard lk(mu_);
  for (auto& [fid, f] : flights_) {
    for (auto& w : f.waiters) {
      SettleLocked(w, /*ok=*/false, false, /*crashed=*/true, 0, 0);
    }
  }
  flights_.clear();
  for (auto& [peer, ps] : peers_) {
    for (auto& w : ps.queued) {
      SettleLocked(w, /*ok=*/false, false, /*crashed=*/true, 0, 0);
    }
    ps.queued.clear();
    ps.queued_target = StateId{};
    ps.current_flight_id = 0;
  }
}

void FlushAggregator::Reset() {
  FailAll();
  audit::LockGuard lk(mu_);
  peers_.clear();
  flights_.clear();
}

std::optional<StateId> FlushAggregator::WatermarkForTest(
    const MspId& peer) const {
  audit::LockGuard lk(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.watermark == StateId{}) {
    return std::nullopt;
  }
  return it->second.watermark;
}

size_t FlushAggregator::InFlightForTest() const {
  audit::LockGuard lk(mu_);
  return flights_.size();
}

size_t FlushAggregator::WaiterCountForTest() const {
  audit::LockGuard lk(mu_);
  size_t n = 0;
  for (const auto& [fid, f] : flights_) n += f.waiters.size();
  for (const auto& [peer, ps] : peers_) n += ps.queued.size();
  return n;
}

// ---------------------------------------------------------------------------
// InboundFlushCoalescer
// ---------------------------------------------------------------------------

InboundFlushCoalescer::InboundFlushCoalescer(SimEnvironment* env, FlushFn flush,
                                             ReplyFn reply)
    : flush_(std::move(flush)), reply_(std::move(reply)) {
  obs::MetricsRegistry& m = env->metrics();
  ctr_flushes_saved_ = m.GetCounter("flush.peer_flushes_saved");
  hist_batch_ = m.GetHistogram("flush.inbound_batch");
}

void InboundFlushCoalescer::Enqueue(Request r) {
  {
    audit::LockGuard lk(mu_);
    queue_.push_back(std::move(r));
    if (draining_) return;  // the active drainer's next batch covers it
    draining_ = true;
  }
  Drain();
}

void InboundFlushCoalescer::Drain() {
  while (true) {
    std::vector<Request> batch;
    {
      audit::LockGuard lk(mu_);
      if (queue_.empty()) {
        draining_ = false;
        return;
      }
      batch.swap(queue_);
    }
    uint64_t max_sn = 0;
    for (const Request& r : batch) max_sn = std::max(max_sn, r.flush_sn);
    if (!flush_(max_sn).ok()) {
      // We are crashing mid-flush: drop the batch silently — replying with
      // a failure for the current epoch would poison the requesters'
      // recovered-state tables. Recovery gives the authoritative answer.
      audit::LockGuard lk(mu_);
      queue_.clear();
      draining_ = false;
      return;
    }
    if (batch.size() > 1) ctr_flushes_saved_->Add(batch.size() - 1);
    hist_batch_->Record(static_cast<double>(batch.size()));
    for (const Request& r : batch) reply_(r);
  }
}

}  // namespace msplog
