// FlushAggregator / InboundFlushCoalescer — group commit for the peer legs
// of distributed log flushes (§3.1): the distributed analogue of the §5.5
// batch flusher.
//
// A pessimistic boundary (client reply, cross-domain call) forces every
// remote dependency in the session's DV durable at its peer. Without
// aggregation, N concurrent repliers cost N kFlushRequest round trips and up
// to N physical flushes at the peer even when a single request to the
// DV-maximum state number would satisfy them all. The wire format already
// permits this: `flush_sn` is a "flush up to" bound (ARIES flush-to-LSN), so
// one in-flight request covers every leg with a smaller state number of the
// same epoch.
//
// Sender side (FlushAggregator). Each peer has at most one open *flight* —
// an in-flight kFlushRequest with a target StateId. A submitted leg either:
//   * skips   — the durable watermark of its epoch already covers it (no
//               leg at all);
//   * joins   — its id is ≤ the open flight's target, so that flight's
//               completion settles it too (no message sent);
//   * queues  — it exceeds the open flight's target; queued legs accumulate
//               and dispatch as ONE max-target flight when the flight lands;
//   * launches — no open flight: it becomes a new flight immediately.
// All four outcomes are decided under one aggregator lock pass. A failed
// flight settles *every* joined leg exactly as per-leg requests would have:
// legs at or below the peer's recovered (epoch, sn) are durable, everything
// above is orphaned with that recovered state number as the witness.
//
// Receiver side (InboundFlushCoalescer). Concurrent kFlushRequests drain
// through one batching loop: the first arrival becomes the drainer, flushes
// to the batch maximum with a single LogFile::FlushUpTo, and replies to all
// covered requests from that one completion.
//
// Threading: the aggregator mutex orders before each call's rendezvous
// mutex (msp.flush_agg → msp.flush_call). Sends happen via an injected
// callback; SimNetwork::Send never blocks on model time, so sending under
// the aggregator lock is safe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/state_id.h"
#include "rpc/message.h"
#include "sim/sim_env.h"

namespace msplog {

/// Completion rendezvous for one DistributedFlushImpl call: every leg the
/// call submits settles against this object, so the caller waits on ONE
/// condition variable with one deadline instead of polling legs in turn.
struct FlushCall {
  audit::Mutex mu{"msp.flush_call"};
  audit::CondVar cv;
  size_t unsettled GUARDED_BY(mu) = 0;  ///< legs not yet settled
  bool fatal GUARDED_BY(mu) = false;    ///< some settled leg was not ok
};

/// One leg of one distributed flush: "make (epoch, sn) durable at `peer`".
struct FlushWaiter {
  std::shared_ptr<FlushCall> call;
  MspId peer;
  StateId id;
  obs::SpanContext span;  ///< the submitting flush's span (trace parent)

  // -- outcome, guarded by the rendezvous mutex --
  bool settled GUARDED_BY(call->mu) = false;
  bool ok GUARDED_BY(call->mu) = false;
  bool timed_out GUARDED_BY(call->mu) = false;
  bool crashed GUARDED_BY(call->mu) = false;
  /// Authoritative-failure witness (0 = none).
  uint32_t orphan_epoch GUARDED_BY(call->mu) = 0;
  uint64_t orphan_sn GUARDED_BY(call->mu) = 0;

  // -- flight bookkeeping, guarded by FlushAggregator::mu_ --
  uint64_t flight_id = 0;       ///< 0 = queued behind the peer's open flight
  uint64_t observed_round = 0;  ///< resend round-guard (one resend per round)
};

class FlushAggregator {
 public:
  struct Options {
    MspId self;
    /// Join/accumulate legs per peer. When false every leg launches its own
    /// flight — today's per-request behaviour, kept for the ablation knob.
    bool coalesce = true;
  };
  using SendFn = std::function<void(const MspId& peer, const Bytes& wire)>;

  FlushAggregator(SimEnvironment* env, Options opts, SendFn send);

  /// Submit one leg. Returns nullptr when the durable watermark already
  /// covers `id` (same epoch, sn at or below it); otherwise a waiter
  /// registered with `call` whose settlement the caller awaits on call->cv.
  std::shared_ptr<FlushWaiter> Submit(const MspId& peer, StateId id,
                                      const std::shared_ptr<FlushCall>& call,
                                      const obs::SpanContext& parent_span);

  /// Route a kFlushReply to its flight: success settles every joined leg and
  /// advances the watermark to the flight target; authoritative failure
  /// settles each leg against the recovered (epoch, sn); non-authoritative
  /// failure resends. Either way, legs queued behind the flight dispatch.
  void HandleReply(const Message& m);

  /// Called by the waiting thread after a timeout round with no settlement:
  /// resends the stalled flight (once per round across all its waiters) or,
  /// after kMaxSendRounds rounds, times the whole flight out.
  void OnWaitTimeout(const std::shared_ptr<FlushWaiter>& w);

  /// Detach a waiter whose caller stopped caring (early exit on another
  /// leg's orphan/crash). If its flight has no waiters left the flight is
  /// dropped so queued legs are not stuck behind it.
  void Abandon(const std::shared_ptr<FlushWaiter>& w);

  /// Crash: settle every in-flight and queued leg as crashed, drop state.
  void FailAll();

  /// Start/restart: drop watermarks, flights and queues (FailAll first if
  /// any legs are still registered).
  void Reset();

  /// Highest (epoch, sn) known durable at `peer`, if any.
  std::optional<StateId> WatermarkForTest(const MspId& peer) const;
  size_t InFlightForTest() const;
  /// Unsettled legs held by the aggregator (joined + queued).
  size_t WaiterCountForTest() const;

 private:
  struct Flight {
    MspId peer;
    StateId target;
    uint64_t round = 0;     ///< send rounds so far (1 = initial send)
    Bytes wire;             ///< encoded kFlushRequest, resent verbatim
    obs::SpanContext span;  ///< the flight's own span (joined legs parent it)
    std::vector<std::shared_ptr<FlushWaiter>> waiters;
  };
  struct PeerState {
    StateId watermark;  ///< highest (epoch, sn) known durable at the peer
    uint64_t current_flight_id = 0;  ///< coalescing: the peer's open flight
    std::vector<std::shared_ptr<FlushWaiter>> queued;
    StateId queued_target;  ///< max id among queued
  };

  void LaunchLocked(const MspId& peer, PeerState& ps, StateId target,
                    std::vector<std::shared_ptr<FlushWaiter>> waiters,
                    const obs::SpanContext& parent_span) REQUIRES(mu_);
  void LaunchQueuedLocked(const MspId& peer, PeerState& ps) REQUIRES(mu_);
  void TimeOutFlightLocked(uint64_t flight_id) REQUIRES(mu_);
  void AdvanceWatermarkLocked(PeerState& ps, StateId id) REQUIRES(mu_);
  /// Settle `w` (idempotent): takes call->mu under mu_, wakes the caller.
  void SettleLocked(const std::shared_ptr<FlushWaiter>& w, bool ok,
                    bool timed_out, bool crashed, uint32_t orphan_epoch,
                    uint64_t orphan_sn) REQUIRES(mu_);

  SimEnvironment* env_;
  Options opts_;
  SendFn send_;

  mutable audit::Mutex mu_{"msp.flush_agg"};
  std::map<MspId, PeerState> peers_ GUARDED_BY(mu_);
  std::map<uint64_t, Flight> flights_ GUARDED_BY(mu_);
  uint64_t next_flush_id_ GUARDED_BY(mu_) = 1;

  // Observability handles (owned by the environment's registry).
  obs::Counter* ctr_legs_;        ///< "flush.legs_requested"
  obs::Counter* ctr_coalesced_;   ///< "flush.legs_coalesced" (in-flight joins)
  obs::Counter* ctr_msgs_saved_;  ///< "flush.messages_saved"
  obs::Counter* ctr_skips_;       ///< "flush.watermark_skips"
  obs::Counter* ctr_sent_;        ///< "flush.requests_sent"
  obs::Histogram* hist_batch_;    ///< "flush.flight_batch" legs per flight
};

/// Receiver-side group commit: concurrent kFlushRequest handlers enqueue
/// here; one drainer flushes to the batch maximum and replies to every
/// covered request from the single LogFile::FlushUpTo completion.
class InboundFlushCoalescer {
 public:
  struct Request {
    MspId sender;
    uint64_t flush_id = 0;
    uint64_t flush_sn = 0;
  };
  using FlushFn = std::function<Status(uint64_t flush_sn)>;
  using ReplyFn = std::function<void(const Request&)>;

  InboundFlushCoalescer(SimEnvironment* env, FlushFn flush, ReplyFn reply);

  /// Queue one request. The calling thread becomes the drainer if none is
  /// active; otherwise it returns immediately and the active drainer's next
  /// batch covers the request. On flush failure (we are crashing) the whole
  /// batch is dropped silently — recovery gives the authoritative answer.
  void Enqueue(Request r);

 private:
  void Drain();

  FlushFn flush_;
  ReplyFn reply_;

  audit::Mutex mu_{"msp.flush_inbound"};
  bool draining_ GUARDED_BY(mu_) = false;
  std::vector<Request> queue_ GUARDED_BY(mu_);

  obs::Counter* ctr_flushes_saved_;  ///< "flush.peer_flushes_saved"
  obs::Histogram* hist_batch_;       ///< "flush.inbound_batch"
};

}  // namespace msplog
