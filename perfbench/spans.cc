// Metrics output, the benchmark's span log, and the join of benchmark spans
// with the program's EventTracer span tree.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

using msplog::obs::TraceEvent;
using msplog::obs::TraceEventType;

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (auto& [n, v, u] : items_) {
    if (n == name) {
      v = value;
      u = unit;
      return;
    }
  }
  items_.emplace_back(name, value, unit);
}

double Metrics::Get(const std::string& name) const {
  for (const auto& [n, v, u] : items_) {
    if (n == name) return v;
  }
  return 0;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const auto& [n, v, u] : items_) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + msplog::obs::JsonEscape(n) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + msplog::obs::JsonEscape(u) + "\"}";
    first = false;
  }
  return out + "}";
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::Add(Span s) {
  if (!enabled()) return;
  msplog::audit::LockGuard lk(mu_);
  pending_.push_back(std::move(s));
}

std::vector<Span> SpanLog::Take() {
  msplog::audit::LockGuard lk(mu_);
  std::vector<Span> out = std::move(pending_);
  pending_.clear();
  all_.insert(all_.end(), out.begin(), out.end());
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  msplog::audit::LockGuard lk(mu_);
  for (const auto* list : {&all_, &pending_}) {
    for (const Span& s : *list) {
      f << "{\"name\":\"" << s.name << "\",\"session\":\""
        << msplog::obs::JsonEscape(s.session) << "\",\"seqno\":" << s.seqno
        << ",\"model_start_ms\":" << s.model_start
        << ",\"model_end_ms\":" << s.model_end
        << ",\"wall_start_ns\":" << s.wall_start_ns
        << ",\"wall_end_ns\":" << s.wall_end_ns << "}\n";
    }
  }
  return static_cast<bool>(f);
}

namespace {

/// The server-side request span of one MSP: the first event of each kind.
struct ServerSpan {
  uint64_t span_id = 0;
  double enqueue = -1, dequeue = -1, exec_start = -1, exec_end = -1,
         reply = -1;
  bool complete() const {
    return enqueue >= 0 && dequeue >= 0 && exec_start >= 0 && exec_end >= 0 &&
           reply >= 0;
  }
};

void Note(ServerSpan* s, const TraceEvent& e) {
  double* slot = nullptr;
  switch (e.type) {
    case TraceEventType::kEnqueue: slot = &s->enqueue; break;
    case TraceEventType::kDequeue: slot = &s->dequeue; break;
    case TraceEventType::kExecStart: slot = &s->exec_start; break;
    case TraceEventType::kExecEnd: slot = &s->exec_end; break;
    case TraceEventType::kReplySent: slot = &s->reply; break;
    default: return;
  }
  if (*slot < 0) *slot = e.model_ms;
}

}  // namespace

void SpanJoin::Add(const std::vector<Span>& spans,
                   const std::vector<TraceEvent>& events) {
  // (session, seqno) -> client trace id, from the client endpoint's own
  // call-start event (the trace id doubles as the root span id).
  std::map<std::pair<std::string, uint64_t>, uint64_t> trace_of;
  // Server request spans keyed by their parent span id; a resent request
  // opens a second span under the same parent, so keep the one that ran.
  std::unordered_map<uint64_t, std::map<uint64_t, ServerSpan>> by_parent;
  // Distributed-flush spans keyed by the request span they stall.
  std::unordered_map<uint64_t, std::pair<double, double>> flush_of;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kClientCallStart && e.span.valid()) {
      trace_of[{e.session, e.seqno}] = e.span.trace_id;
    } else if (e.type == TraceEventType::kDistFlushStart && e.span.valid()) {
      flush_of[e.span.parent_span_id].first = e.model_ms;
    } else if (e.type == TraceEventType::kDistFlushEnd && e.span.valid()) {
      flush_of[e.span.parent_span_id].second = e.model_ms;
    } else if (e.span.valid() && e.span.parent_span_id != 0) {
      ServerSpan& s = by_parent[e.span.parent_span_id][e.span.span_id];
      s.span_id = e.span.span_id;
      Note(&s, e);
    }
  }
  auto executed = [&](uint64_t parent) -> const ServerSpan* {
    auto it = by_parent.find(parent);
    if (it == by_parent.end()) return nullptr;
    for (const auto& [id, s] : it->second) {
      if (s.complete()) return &s;
    }
    return nullptr;
  };

  for (const Span& sp : spans) {
    if (sp.name != "client.call") continue;
    ++calls_;
    auto t = trace_of.find({sp.session, sp.seqno});
    if (t == trace_of.end()) continue;
    const ServerSpan* m1 = executed(t->second);
    if (m1 == nullptr) continue;
    const ServerSpan* m2 = executed(m1->span_id);
    const double client_ms = sp.model_end - sp.model_start;
    const double m2_ms = m2 ? m2->reply - m2->enqueue : 0;
    double flush_ms = 0;
    auto f = flush_of.find(m1->span_id);
    if (f != flush_of.end() && f->second.second >= f->second.first) {
      flush_ms = f->second.second - f->second.first;
    }
    client_.push_back(client_ms);
    transit_.push_back(std::max(0.0, client_ms - (m1->reply - m1->enqueue)));
    q1_.push_back(m1->dequeue - m1->enqueue);
    exec_self1_.push_back(
        std::max(0.0, (m1->exec_end - m1->exec_start) - m2_ms));
    flush1_.push_back(flush_ms);
    reply_self1_.push_back(
        std::max(0.0, (m1->reply - m1->exec_end) - flush_ms));
    if (m2) {
      req2_.push_back(m2_ms);
      q2_.push_back(m2->dequeue - m2->enqueue);
      exec2_.push_back(m2->exec_end - m2->exec_start);
    }
  }
}

void SpanJoin::Add(const SpanJoin& other) {
  calls_ += other.calls_;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&client_, other.client_);
  append(&transit_, other.transit_);
  append(&q1_, other.q1_);
  append(&exec_self1_, other.exec_self1_);
  append(&flush1_, other.flush1_);
  append(&reply_self1_, other.reply_self1_);
  append(&req2_, other.req2_);
  append(&q2_, other.q2_);
  append(&exec2_, other.exec2_);
}

void SpanJoin::Emit(Metrics* out) const {
  out->Set("span.calls_joined_frac",
           calls_ ? static_cast<double>(client_.size()) /
                        static_cast<double>(calls_)
                  : 0,
           "ratio");
  out->Set("span.client_call_model_ms_p50", Median(client_), "ms");
  out->Set("net.transit_model_ms", Median(transit_), "ms");
  out->Set("span.msp1_queue_model_ms_p50", Median(q1_), "ms");
  out->Set("span.msp1_exec_self_model_ms_p50", Median(exec_self1_), "ms");
  out->Set("span.msp1_dist_flush_model_ms_p50", Median(flush1_), "ms");
  out->Set("span.msp1_reply_self_model_ms_p50", Median(reply_self1_), "ms");
  out->Set("span.msp2_request_model_ms_p50", Median(req2_), "ms");
  out->Set("span.msp2_queue_model_ms_p50", Median(q2_), "ms");
  out->Set("span.msp2_exec_model_ms_p50", Median(exec2_), "ms");
}

std::vector<TraceEvent> TraceHarvest::Take(msplog::obs::EventTracer* tracer) {
  std::vector<TraceEvent> out = tracer->Events();
  overwritten_ += tracer->dropped();
  tracer->Clear();
  for (const TraceEvent& e : out) {
    min_seq_ = std::min(min_seq_, e.seq);
    max_seq_ = std::max(max_seq_, e.seq);
  }
  events_ += out.size();
  return out;
}

uint64_t TraceHarvest::missed() const {
  const uint64_t span = events_ ? max_seq_ - min_seq_ + 1 : 0;
  return span - std::min(span, events_ + overwritten_);
}

}  // namespace perfbench
