#include "obs/scraper.h"

#include <chrono>

#include "obs/json.h"
#include "obs/metrics.h"

namespace msplog {
namespace obs {

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::Push(double t_ms, double value) {
  ring_[next_] = Sample{t_ms, value};
  next_ = (next_ + 1) % ring_.size();
  ++total_;
}

std::vector<TimeSeriesRing::Sample> TimeSeriesRing::Samples() const {
  std::vector<Sample> out;
  size_t n = size();
  out.reserve(n);
  // Oldest retained sample sits at next_ once the ring has wrapped.
  size_t start = (total_ >= ring_.size()) ? next_ : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

TimeSeriesRing::Sample TimeSeriesRing::Latest() const {
  if (total_ == 0) return Sample{};
  return ring_[(next_ + ring_.size() - 1) % ring_.size()];
}

MetricsScraper::MetricsScraper(MetricsRegistry* registry,
                               std::function<double()> now_ms)
    : MetricsScraper(registry, std::move(now_ms), Options()) {}

MetricsScraper::MetricsScraper(MetricsRegistry* registry,
                               std::function<double()> now_ms,
                               Options options)
    : registry_(registry), now_ms_(std::move(now_ms)),
      options_(std::move(options)) {}

MetricsScraper::~MetricsScraper() { Stop(); }

void MetricsScraper::AddProbeLocked(const std::string& name,
                                    const char* prom_type,
                                    std::function<double()> read) {
  mu_.AssertHeld();
  for (const auto& p : probes_) {
    if (p->name == name) return;  // already watched
  }
  probes_.push_back(std::make_unique<Probe>(name, prom_type, std::move(read),
                                            options_.ring_capacity));
}

void MetricsScraper::WatchCounter(const std::string& name) {
  Counter* c = registry_->GetCounter(name);
  audit::LockGuard lk(mu_);
  AddProbeLocked(name, "counter",
                 [c] { return static_cast<double>(c->Value()); });
}

void MetricsScraper::WatchGauge(const std::string& name) {
  Gauge* g = registry_->GetGauge(name);
  audit::LockGuard lk(mu_);
  AddProbeLocked(name, "gauge",
                 [g] { return static_cast<double>(g->Value()); });
}

void MetricsScraper::WatchHistogram(const std::string& name) {
  Histogram* h = registry_->GetHistogram(name);
  audit::LockGuard lk(mu_);
  AddProbeLocked(name + ".count", "counter",
                 [h] { return static_cast<double>(h->Count()); });
  AddProbeLocked(name + ".mean", "gauge", [h] { return h->Snap().Mean(); });
  AddProbeLocked(name + ".p99", "gauge", [h] { return h->Snap().P99(); });
}

void MetricsScraper::WatchAllRegistered() {
  MetricsRegistry::RegistrySnapshot snap = registry_->Snap();
  for (const auto& [name, _] : snap.counters) WatchCounter(name);
  for (const auto& [name, _] : snap.gauges) WatchGauge(name);
  for (const auto& [name, _] : snap.histograms) WatchHistogram(name);
}

void MetricsScraper::AddProbe(const std::string& name,
                              std::function<double()> read) {
  audit::LockGuard lk(mu_);
  AddProbeLocked(name, "gauge", std::move(read));
}

void MetricsScraper::AnnotateEpoch(double t_ms, const std::string& label) {
  audit::LockGuard lk(mu_);
  epoch_marks_.push_back(EpochMark{t_ms, label});
  while (epoch_marks_.size() > kMaxEpochMarks) epoch_marks_.pop_front();
}

std::vector<MetricsScraper::EpochMark> MetricsScraper::EpochMarks() const {
  audit::LockGuard lk(mu_);
  return std::vector<EpochMark>(epoch_marks_.begin(), epoch_marks_.end());
}

void MetricsScraper::Start() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  {
    audit::LockGuard lk(mu_);
    if (running_) return;
    stop_ = false;
    running_ = true;
  }
  thread_ = std::thread(&MetricsScraper::Loop, this);
}

void MetricsScraper::Stop() {
  audit::LockGuard lifecycle(lifecycle_mu_);
  {
    audit::LockGuard lk(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  audit::LockGuard lk(mu_);
  running_ = false;
  stop_ = false;
}

bool MetricsScraper::running() const {
  audit::LockGuard lk(mu_);
  return running_;
}

void MetricsScraper::SampleNow() {
  double now = now_ms_();
  audit::LockGuard lk(mu_);
  SampleLocked(now);
}

void MetricsScraper::SampleLocked(double now) {
  mu_.AssertHeld();
  for (auto& p : probes_) {
    p->ring.Push(now, p->read());
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsScraper::Loop() {
  audit::UniqueLock lk(mu_);
  while (!stop_) {
    SampleLocked(now_ms_());
    cv_.wait_for(lk,
                 std::chrono::duration<double, std::milli>(options_.period_ms),
                 [this] {
                   mu_.AssertHeld();
                   return stop_;
                 });
  }
}

std::vector<std::string> MetricsScraper::SeriesNames() const {
  audit::LockGuard lk(mu_);
  std::vector<std::string> out;
  out.reserve(probes_.size());
  for (const auto& p : probes_) out.push_back(p->name);
  return out;
}

bool MetricsScraper::Series(const std::string& name,
                            std::vector<TimeSeriesRing::Sample>* out) const {
  audit::LockGuard lk(mu_);
  for (const auto& p : probes_) {
    if (p->name == name) {
      *out = p->ring.Samples();
      return true;
    }
  }
  return false;
}

uint64_t MetricsScraper::SeriesTotalPushed(const std::string& name) const {
  audit::LockGuard lk(mu_);
  for (const auto& p : probes_) {
    if (p->name == name) return p->ring.total_pushed();
  }
  return 0;
}

namespace {

/// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PromName(const std::string& prefix, const std::string& name) {
  std::string out = prefix.empty() ? "" : prefix + "_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

}  // namespace

std::string MetricsScraper::DumpPrometheus() const {
  audit::LockGuard lk(mu_);
  // Numbers use the JSON writer's one format (shortest round-trip), which
  // the Prometheus text format accepts for every finite value.
  std::string out;
  // Crash/recovery epoch marks ride along as comments: Prometheus ignores
  // them, humans reading the exposition see why a series went flat.
  for (const auto& m : epoch_marks_) {
    out += "# EPOCH ";
    AppendJsonValue(&out, m.t_ms);
    out += "ms " + m.label + "\n";
  }
  for (const auto& p : probes_) {
    if (p->ring.total_pushed() == 0) continue;
    std::string name = PromName(options_.prefix, p->name);
    out += "# TYPE " + name + " " + p->prom_type + "\n";
    out += name + " ";
    AppendJsonValue(&out, p->ring.Latest().value);
    out += "\n";
  }
  return out;
}

std::string MetricsScraper::DumpJson() const {
  audit::LockGuard lk(mu_);
  JsonArray marks;
  for (const EpochMark& m : epoch_marks_) {
    marks.Push(Json().Add("t_ms", m.t_ms).Add("label", m.label));
  }
  Json series;
  for (const auto& p : probes_) {
    JsonArray points;
    for (const TimeSeriesRing::Sample& pt : p->ring.Samples()) {
      points.Push(JsonArray().Push(pt.t_ms).Push(pt.value));
    }
    series.Add(p->name, Json()
                            .Add("total_pushed", p->ring.total_pushed())
                            .Add("points", points));
  }
  return Json()
      .Add("period_ms", options_.period_ms)
      .Add("ring_capacity", options_.ring_capacity)
      .Add("samples_taken", samples_.load(std::memory_order_relaxed))
      .Add("epoch_marks", marks)
      .Add("series", series)
      .Str();
}

}  // namespace obs
}  // namespace msplog
