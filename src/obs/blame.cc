#include "obs/blame.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "obs/json.h"

namespace msplog {
namespace obs {

namespace {

struct TraceGroup {
  const TraceEvent* call_start = nullptr;
  const TraceEvent* call_end = nullptr;
  std::vector<const TraceEvent*> events;  ///< seq order
};

/// Parse "dv_entries=N" (the kDistFlushStart detail); 0 when absent.
uint64_t ParseDvEntries(const std::string& detail) {
  const std::string key = "dv_entries=";
  size_t pos = detail.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(detail.c_str() + pos + key.size(), nullptr, 10);
}

std::map<uint64_t, TraceGroup> GroupByTrace(
    const std::vector<TraceEvent>& events) {
  std::map<uint64_t, TraceGroup> traces;
  for (const TraceEvent& e : events) {
    if (e.span.trace_id == 0) continue;
    TraceGroup& g = traces[e.span.trace_id];
    g.events.push_back(&e);
    if (e.type == TraceEventType::kClientCallStart && !g.call_start) {
      g.call_start = &e;
    } else if (e.type == TraceEventType::kClientCallEnd) {
      g.call_end = &e;
    }
  }
  return traces;
}

}  // namespace

TailBlameReport AttributeTailLatency(const std::vector<TraceEvent>& events,
                                     double threshold_ms) {
  TailBlameReport r;
  r.threshold_ms = threshold_ms;

  for (const auto& [trace_id, g] : GroupByTrace(events)) {
    (void)trace_id;
    if (!g.call_start || !g.call_end) {
      ++r.traces_incomplete;
      continue;
    }

    // Root-MSP landmarks. The root MSP is wherever the first enqueue landed;
    // nested sub-requests run on other actors and stay inside exec.
    const TraceEvent* enq = nullptr;
    for (const TraceEvent* e : g.events) {
      if (e->type == TraceEventType::kEnqueue) {
        enq = e;
        break;
      }
    }
    if (!enq) {
      ++r.traces_incomplete;
      continue;
    }
    const std::string& root = enq->actor;
    const TraceEvent* deq = nullptr;
    const TraceEvent* exec0 = nullptr;
    const TraceEvent* exec1 = nullptr;
    const TraceEvent* reply = nullptr;
    for (const TraceEvent* e : g.events) {
      if (e->actor != root) continue;
      switch (e->type) {
        case TraceEventType::kDequeue:
          if (!deq) deq = e;
          break;
        case TraceEventType::kExecStart:
          if (!exec0) exec0 = e;
          break;
        case TraceEventType::kExecEnd:
          exec1 = e;
          break;
        case TraceEventType::kReplySent:
          reply = e;
          break;
        default:
          break;
      }
    }
    if (!deq || !exec0 || !exec1 || !reply) {
      ++r.traces_incomplete;
      continue;
    }

    double duration = g.call_end->model_ms - g.call_start->model_ms;
    ++r.traces_total;
    if (duration < threshold_ms) continue;
    ++r.traces_slow;
    r.total_ms += duration;

    double queue_wait = std::max(0.0, deq->model_ms - enq->model_ms);
    double exec = std::max(0.0, exec1->model_ms - exec0->model_ms);

    // Reply-path flushes: dist-flush intervals on the root MSP after exec
    // ended. A flush is "remote" when its DV spans a peer (dv_entries >= 2)
    // or when a flight launch/join fell inside its window; a single-entry
    // DV is a pure local log force.
    double local_flush = 0;
    double remote_flush = 0;
    for (size_t i = 0; i < g.events.size(); ++i) {
      const TraceEvent* s = g.events[i];
      if (s->type != TraceEventType::kDistFlushStart || s->actor != root ||
          s->model_ms < exec1->model_ms) {
        continue;
      }
      const TraceEvent* end = nullptr;
      for (size_t j = i + 1; j < g.events.size(); ++j) {
        const TraceEvent* e = g.events[j];
        if (e->type == TraceEventType::kDistFlushEnd &&
            e->span.span_id == s->span.span_id) {
          end = e;
          break;
        }
      }
      if (!end) continue;
      bool remote = ParseDvEntries(s->detail) >= 2;
      if (!remote) {
        for (const TraceEvent* e : g.events) {
          if ((e->type == TraceEventType::kFlushFlightLaunch ||
               e->type == TraceEventType::kFlushLegJoin) &&
              e->model_ms >= s->model_ms && e->model_ms <= end->model_ms) {
            remote = true;
            break;
          }
        }
      }
      double d = std::max(0.0, end->model_ms - s->model_ms);
      (remote ? remote_flush : local_flush) += d;
    }

    // Client-visible time outside the server window: network transit both
    // ways, busy-reply backoff, resend waits for dropped messages.
    double server_window = reply->model_ms - enq->model_ms;
    double net_resend = std::max(0.0, duration - server_window);

    r.queue_wait_ms += queue_wait;
    r.exec_ms += exec;
    r.local_flush_ms += local_flush;
    r.remote_flush_ms += remote_flush;
    r.net_resend_ms += net_resend;
    r.other_ms += std::max(0.0, duration - queue_wait - exec - local_flush -
                                    remote_flush - net_resend);
  }
  return r;
}

TailBlameReport AttributeTailQuantile(const std::vector<TraceEvent>& events,
                                      double q) {
  std::vector<double> durations;
  for (const auto& [trace_id, g] : GroupByTrace(events)) {
    (void)trace_id;
    if (g.call_start && g.call_end) {
      durations.push_back(g.call_end->model_ms - g.call_start->model_ms);
    }
  }
  if (durations.size() < 2) {
    TailBlameReport r;
    r.traces_incomplete = 0;
    return AttributeTailLatency(events, 0.0);
  }
  std::sort(durations.begin(), durations.end());
  q = std::min(std::max(q, 0.0), 1.0);
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(durations.size() - 1)));
  return AttributeTailLatency(events, durations[idx]);
}

std::string TailBlameReport::ToJson() const {
  return Json()
      .Add("threshold_ms", threshold_ms)
      .Add("traces_total", traces_total)
      .Add("traces_slow", traces_slow)
      .Add("traces_incomplete", traces_incomplete)
      .Add("total_ms", total_ms)
      .Add("buckets", Json()
                          .Add("queue_wait_ms", queue_wait_ms)
                          .Add("exec_ms", exec_ms)
                          .Add("local_flush_ms", local_flush_ms)
                          .Add("remote_flush_ms", remote_flush_ms)
                          .Add("net_resend_ms", net_resend_ms)
                          .Add("other_ms", other_ms))
      .Add("shares", Json()
                         .Add("queue_wait", Share(queue_wait_ms))
                         .Add("exec", Share(exec_ms))
                         .Add("local_flush", Share(local_flush_ms))
                         .Add("remote_flush", Share(remote_flush_ms))
                         .Add("net_resend", Share(net_resend_ms))
                         .Add("other", Share(other_ms)))
      .Str();
}

}  // namespace obs
}  // namespace msplog
