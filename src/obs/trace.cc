#include "audit/mutex.h"
#include "obs/trace.h"

#include <algorithm>
#include <limits>
#include <map>
#include <thread>

#include "obs/json.h"

namespace msplog {
namespace obs {

const char* TraceEventTypeName(TraceEventType t) {
  switch (t) {
    case TraceEventType::kEnqueue: return "Enqueue";
    case TraceEventType::kExecStart: return "ExecStart";
    case TraceEventType::kExecEnd: return "ExecEnd";
    case TraceEventType::kLocalFlushStart: return "LocalFlushStart";
    case TraceEventType::kLocalFlushEnd: return "LocalFlushEnd";
    case TraceEventType::kDistFlushStart: return "DistFlushStart";
    case TraceEventType::kDistFlushEnd: return "DistFlushEnd";
    case TraceEventType::kReplySent: return "ReplySent";
    case TraceEventType::kCheckpointBegin: return "CheckpointBegin";
    case TraceEventType::kCheckpointEnd: return "CheckpointEnd";
    case TraceEventType::kRecoveryStart: return "RecoveryStart";
    case TraceEventType::kAnalysisScanEnd: return "AnalysisScanEnd";
    case TraceEventType::kRecoveryEnd: return "RecoveryEnd";
    case TraceEventType::kReplayStart: return "ReplayStart";
    case TraceEventType::kReplayEnd: return "ReplayEnd";
    case TraceEventType::kOrphanDetected: return "OrphanDetected";
    case TraceEventType::kOrphanCut: return "OrphanCut";
    case TraceEventType::kDequeue: return "Dequeue";
    case TraceEventType::kClientCallStart: return "ClientCallStart";
    case TraceEventType::kClientCallEnd: return "ClientCallEnd";
    case TraceEventType::kFlushFlightLaunch: return "FlushFlightLaunch";
    case TraceEventType::kFlushLegJoin: return "FlushLegJoin";
  }
  return "?";
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Chrome-tracing phase for an event: paired events become duration spans.
/// Returns 'B', 'E' or 'i', and the span name shared by the B/E pair.
char PhaseFor(TraceEventType t, const char** span_name) {
  switch (t) {
    case TraceEventType::kExecStart: *span_name = "exec"; return 'B';
    case TraceEventType::kExecEnd: *span_name = "exec"; return 'E';
    case TraceEventType::kLocalFlushStart: *span_name = "local_flush"; return 'B';
    case TraceEventType::kLocalFlushEnd: *span_name = "local_flush"; return 'E';
    case TraceEventType::kDistFlushStart: *span_name = "dist_flush"; return 'B';
    case TraceEventType::kDistFlushEnd: *span_name = "dist_flush"; return 'E';
    case TraceEventType::kCheckpointBegin: *span_name = "checkpoint"; return 'B';
    case TraceEventType::kCheckpointEnd: *span_name = "checkpoint"; return 'E';
    case TraceEventType::kRecoveryStart: *span_name = "crash_recovery"; return 'B';
    case TraceEventType::kRecoveryEnd: *span_name = "crash_recovery"; return 'E';
    case TraceEventType::kReplayStart: *span_name = "replay"; return 'B';
    case TraceEventType::kReplayEnd: *span_name = "replay"; return 'E';
    case TraceEventType::kClientCallStart: *span_name = "client_call"; return 'B';
    case TraceEventType::kClientCallEnd: *span_name = "client_call"; return 'E';
    default: *span_name = TraceEventTypeName(t); return 'i';
  }
}

}  // namespace

EventTracer::EventTracer(size_t capacity, size_t stripes) {
  if (stripes == 0) stripes = 1;
  per_stripe_ = std::max<size_t>(1, capacity / stripes);
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe_));
  }
}

void EventTracer::Record(TraceEventType type, double model_ms,
                         std::string actor, std::string session,
                         uint64_t seqno, std::string detail, SpanContext span) {
  TraceEvent e;
  e.type = type;
  e.model_ms = model_ms;
  e.seqno = seqno;
  e.actor = std::move(actor);
  e.session = std::move(session);
  e.detail = std::move(detail);
  e.span = span;

  size_t idx = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
               stripes_.size();
  Stripe& st = *stripes_[idx];
  audit::LockGuard lk(st.mu);
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  st.total++;
  if (st.ring.size() < per_stripe_) {
    st.ring.push_back(std::move(e));
  } else {
    st.ring[st.next] = std::move(e);
    st.next = (st.next + 1) % per_stripe_;
  }
}

std::vector<TraceEvent> EventTracer::Newest(size_t n) const {
  // Exact without a sort: each stripe holds its events in seq order, so the
  // newest n overall are among each stripe's newest n. Copy only those, one
  // stripe lock at a time, and merge each stripe's run into the result.
  std::vector<TraceEvent> out;
  out.reserve(stripes_.size() * std::min(n, per_stripe_));
  for (const auto& sp : stripes_) {
    const size_t merged = out.size();
    {
      audit::LockGuard lk(sp->mu);
      const size_t size = sp->ring.size();
      // Ring order starts at next: the oldest event once the ring has
      // wrapped, and 0 until then.
      for (size_t i = size - std::min(n, size); i < size; ++i) {
        out.push_back(sp->ring[(sp->next + i) % size]);
      }
    }
    std::inplace_merge(out.begin(),
                       out.begin() + static_cast<ptrdiff_t>(merged), out.end(),
                       [](const TraceEvent& a, const TraceEvent& b) {
                         return a.seq < b.seq;
                       });
  }
  if (out.size() > n) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(n));
  }
  return out;
}

std::vector<TraceEvent> EventTracer::Events() const {
  return Newest(std::numeric_limits<size_t>::max());
}

uint64_t EventTracer::dropped() const {
  uint64_t d = 0;
  for (const auto& sp : stripes_) {
    audit::LockGuard lk(sp->mu);
    d += sp->total - sp->ring.size();
  }
  return d;
}

void EventTracer::Clear() {
  for (const auto& sp : stripes_) {
    audit::LockGuard lk(sp->mu);
    sp->ring.clear();
    sp->next = 0;
    sp->total = 0;
  }
}

std::string EventTracer::DumpJson(size_t max_events) const {
  const std::vector<TraceEvent> events =
      max_events > 0 ? Newest(max_events) : Events();
  JsonArray out;
  for (const TraceEvent& e : events) {
    Json o;
    o.Add("type", TraceEventTypeName(e.type))
        .Add("t_ms", e.model_ms)
        .Add("seq", e.seq)
        .Add("actor", e.actor)
        .Add("session", e.session)
        .Add("seqno", e.seqno);
    if (e.span.valid()) {
      o.Add("trace_id", e.span.trace_id)
          .Add("span_id", e.span.span_id)
          .Add("parent_span_id", e.span.parent_span_id);
    }
    out.Push(o.Add("detail", e.detail));
  }
  return out.Str();
}

std::string EventTracer::DumpChromeTracing() const {
  std::vector<TraceEvent> events = Events();
  // chrome://tracing wants integer pid/tid: intern actors as processes and
  // sessions as threads, and name them through metadata events.
  std::map<std::string, int> pids;
  std::map<std::pair<std::string, std::string>, int> tids;
  // Flow events draw one causal chain per trace_id: the first event of the
  // trace starts the flow (ph "s"), intermediates continue it ("t"), the
  // last finishes it ("f"). Events are already seq-ordered.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> flow_bounds;  // first/last seq
  for (const TraceEvent& e : events) {
    pids.emplace(e.actor, static_cast<int>(pids.size()) + 1);
    tids.emplace(std::make_pair(e.actor, e.session),
                 static_cast<int>(tids.size()) + 1);
    if (e.span.valid()) {
      auto [it, inserted] =
          flow_bounds.emplace(e.span.trace_id, std::make_pair(e.seq, e.seq));
      if (!inserted) it->second.second = e.seq;
    }
  }

  JsonArray out;
  auto metadata = [&](const char* name, int pid, int tid,
                      const std::string& label) {
    out.Push(Json()
                 .Add("ph", "M")
                 .Add("name", name)
                 .Add("pid", pid)
                 .Add("tid", tid)
                 .Add("args", Json().Add("name", label)));
  };
  for (const auto& [actor, pid] : pids) metadata("process_name", pid, 0, actor);
  for (const auto& [key, tid] : tids) {
    metadata("thread_name", pids[key.first], tid,
             key.second.empty() ? "-" : key.second);
  }
  for (const TraceEvent& e : events) {
    const char* span = nullptr;
    const char ph = PhaseFor(e.type, &span);
    const int pid = pids[e.actor];
    const int tid = tids[{e.actor, e.session}];
    const double ts = e.model_ms * 1000.0;
    Json obj;
    obj.Add("ph", std::string_view(&ph, 1))
        .Add("name", span)
        .Add("ts", ts)
        .Add("pid", pid)
        .Add("tid", tid);
    if (ph == 'i') obj.Add("s", "t");
    Json args;
    args.Add("seqno", e.seqno);
    if (e.span.valid()) {
      args.Add("trace_id", e.span.trace_id)
          .Add("span_id", e.span.span_id)
          .Add("parent_span_id", e.span.parent_span_id);
    }
    out.Push(obj.Add("args", args.Add("detail", e.detail)));
    if (e.span.valid()) {
      const auto& bounds = flow_bounds[e.span.trace_id];
      if (bounds.first != bounds.second) {  // single-event traces draw nothing
        const char fph = e.seq == bounds.first    ? 's'
                         : e.seq == bounds.second ? 'f'
                                                  : 't';
        Json flow;
        flow.Add("ph", std::string_view(&fph, 1))
            .Add("cat", "trace")
            .Add("name", "trace")
            .Add("id", e.span.trace_id)
            .Add("ts", ts)
            .Add("pid", pid)
            .Add("tid", tid);
        if (fph == 'f') flow.Add("bp", "e");
        out.Push(flow);
      }
    }
  }
  return Json().Add("traceEvents", out).Str();
}

}  // namespace obs
}  // namespace msplog
