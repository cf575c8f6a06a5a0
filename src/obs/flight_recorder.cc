#include "obs/flight_recorder.h"

#include "obs/json.h"

namespace msplog {
namespace obs {

namespace {

/// Guards FreezeOnViolation against reentry: a snapshot provider that trips
/// another invariant while being captured must not freeze recursively.
thread_local bool tls_in_violation_freeze = false;

}  // namespace

std::optional<CrashFacts> FlightBundle::Facts() const {
  if (trigger != "crash") return std::nullopt;
  for (const auto& [who, snap] : snapshots) {
    if (who == actor) {
      return CrashFacts{generation, frozen_at_ms, snap.log_durable_lsn,
                        snap.inflight_sessions};
    }
  }
  return std::nullopt;
}

std::string FlightBundle::ToJson() const {
  JsonArray snaps;
  for (const auto& [who, snap] : snapshots) {
    JsonArray inflight;
    for (const std::string& id : snap.inflight_sessions) inflight.Push(id);
    // statusz is itself JSON — embed it raw so consumers get one tree.
    snaps.Push(Json()
                   .Add("actor", who)
                   .Add("log_durable_lsn", snap.log_durable_lsn)
                   .Add("inflight_sessions", inflight)
                   .AddRaw("statusz", snap.statusz_json.empty()
                                          ? "null"
                                          : snap.statusz_json));
  }
  return Json()
      .Add("frozen", frozen)
      .Add("generation", generation)
      .Add("actor", actor)
      .Add("trigger", trigger)
      .Add("detail", detail)
      .Add("held_locks", held_locks)
      .Add("frozen_at_ms", frozen_at_ms)
      .Add("snapshots", snaps)
      .AddRaw("tracer_tail",
              tracer_tail_json.empty() ? "[]" : tracer_tail_json)
      .Str();
}

FlightRecorder::FlightRecorder(std::function<double()> now_ms)
    : now_ms_(std::move(now_ms)) {}

void FlightRecorder::set_tracer_tail_dump(std::function<std::string()> dump) {
  audit::LockGuard lk(mu_);
  tracer_tail_dump_ = std::move(dump);
}

void FlightRecorder::set_held_locks_dump(std::function<std::string()> dump) {
  audit::LockGuard lk(mu_);
  held_locks_dump_ = std::move(dump);
}

void FlightRecorder::SetSnapshotProvider(const std::string& actor,
                                         SnapshotProvider p) {
  audit::LockGuard lk(mu_);
  providers_[actor] = std::move(p);
}

void FlightRecorder::ClearSnapshotProvider(const std::string& actor) {
  audit::LockGuard lk(mu_);
  providers_.erase(actor);
}

FlightBundle FlightRecorder::Freeze(const std::string& actor,
                                    uint64_t generation,
                                    const std::string& trigger,
                                    const std::string& detail) {
  std::vector<std::pair<std::string, SnapshotProvider>> providers;
  std::function<std::string()> tracer_dump, locks_dump;
  {
    audit::LockGuard lk(mu_);
    for (const auto& [who, provider] : providers_) {
      if (actor.empty() || who == actor) providers.emplace_back(who, provider);
    }
    tracer_dump = tracer_tail_dump_;
    locks_dump = held_locks_dump_;
  }
  FlightBundle b;
  b.frozen = true;
  b.generation = generation;
  b.actor = actor;
  b.trigger = trigger;
  b.detail = detail;
  b.frozen_at_ms = now_ms_();
  // The dumps and providers run outside the recorder lock: they take
  // server locks (statusz, session table) and must never nest under mu_.
  if (tracer_dump) b.tracer_tail_json = tracer_dump();
  if (locks_dump) b.held_locks = locks_dump();
  for (auto& [who, provider] : providers) {
    b.snapshots.emplace_back(who, provider());
  }
  audit::LockGuard lk(mu_);
  bundles_.push_back(b);
  ++frozen_total_;
  while (bundles_.size() > kMaxBundles) bundles_.pop_front();
  return b;
}

FlightBundle FlightRecorder::FreezeOnCrash(const std::string& actor,
                                           uint64_t generation,
                                           const std::string& detail) {
  return Freeze(actor, generation, "crash", detail);
}

void FlightRecorder::FreezeOnViolation(const std::string& invariant,
                                       const std::string& detail) {
  if (tls_in_violation_freeze) return;
  tls_in_violation_freeze = true;
  Freeze(/*actor=*/"", /*generation=*/0, "invariant:" + invariant, detail);
  tls_in_violation_freeze = false;
}

std::vector<FlightBundle> FlightRecorder::Bundles() const {
  audit::LockGuard lk(mu_);
  return std::vector<FlightBundle>(bundles_.begin(), bundles_.end());
}

FlightBundle FlightRecorder::LatestBundleFor(const std::string& actor) const {
  audit::LockGuard lk(mu_);
  for (auto it = bundles_.rbegin(); it != bundles_.rend(); ++it) {
    if (it->actor == actor) return *it;
  }
  return FlightBundle{};
}

uint64_t FlightRecorder::frozen_count() const {
  audit::LockGuard lk(mu_);
  return frozen_total_;
}

}  // namespace obs
}  // namespace msplog
