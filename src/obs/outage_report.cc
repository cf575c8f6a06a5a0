#include "obs/outage_report.h"

#include <algorithm>

#include "obs/json.h"

namespace msplog {
namespace obs {

namespace {

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

OutageReport::SessionFate* OutageReport::Find(const std::string& session_id) {
  for (auto& s : sessions) {
    if (s.session_id == session_id) return &s;
  }
  return nullptr;
}

const OutageReport::SessionFate* OutageReport::Find(
    const std::string& session_id) const {
  for (const auto& s : sessions) {
    if (s.session_id == session_id) return &s;
  }
  return nullptr;
}

void OutageReport::Finalize() {
  std::vector<double> ttrs;
  ttrs.reserve(sessions.size());
  bool pending = false;
  double last = recovery_start_ms;
  for (const auto& s : sessions) {
    if (s.fate == "pending") {
      pending = true;
      continue;
    }
    ttrs.push_back(s.time_to_servable_ms);
    last = std::max(last, s.servable_at_ms);
  }
  complete = valid && !pending;
  if (!ttrs.empty()) recovery_end_ms = std::max(recovery_end_ms, last);
  std::sort(ttrs.begin(), ttrs.end());
  mttr = Mttr{};
  mttr.count = ttrs.size();
  if (ttrs.empty()) return;
  double sum = 0;
  for (double v : ttrs) sum += v;
  mttr.mean_ms = sum / static_cast<double>(ttrs.size());
  mttr.p50_ms = NearestRank(ttrs, 0.50);
  mttr.p90_ms = NearestRank(ttrs, 0.90);
  mttr.p99_ms = NearestRank(ttrs, 0.99);
  mttr.max_ms = ttrs.back();
}

std::string OutageReport::ToJson() const {
  JsonArray fates;
  for (const SessionFate& s : sessions) {
    fates.Push(Json()
                   .Add("session", s.session_id)
                   .Add("fate", s.fate)
                   .Add("was_in_flight", s.was_in_flight)
                   .Add("servable_at_ms", s.servable_at_ms)
                   .Add("time_to_servable_ms", s.time_to_servable_ms)
                   .Add("requests_replayed", s.requests_replayed));
  }
  return Json()
      .Add("valid", valid)
      .Add("complete", complete)
      .Add("generation", generation)
      .Add("epoch", epoch)
      .Add("crash_model_ms", crash_model_ms)
      .Add("recovery_start_ms", recovery_start_ms)
      .Add("recovery_end_ms", recovery_end_ms)
      .Add("sessions", fates)
      .Add("mttr", Json()
                       .Add("count", mttr.count)
                       .Add("mean_ms", mttr.mean_ms)
                       .Add("p50_ms", mttr.p50_ms)
                       .Add("p90_ms", mttr.p90_ms)
                       .Add("p99_ms", mttr.p99_ms)
                       .Add("max_ms", mttr.max_ms))
      .Str();
}

}  // namespace obs
}  // namespace msplog
