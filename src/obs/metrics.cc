#include "audit/mutex.h"
#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace msplog {
namespace obs {

namespace {

/// Quantization unit: 1 µs expressed in model ms.
constexpr double kUnitMs = 1e-3;

uint64_t ToMicros(double value_ms) {
  if (!(value_ms > 0)) return 0;  // negatives and NaN clamp to bucket 0
  double u = value_ms / kUnitMs;
  if (u >= 9.0e15) return 9'000'000'000'000'000ULL;  // safety clamp
  return static_cast<uint64_t>(std::llround(u));
}

void AtomicAddDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (d < cur &&
         !a->compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (d > cur &&
         !a->compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t Histogram::BucketIndex(double value_ms) {
  uint64_t u = ToMicros(value_ms);
  if (u < kSubBuckets) return static_cast<size_t>(u);
  // Highest set bit position; u >= 32 so exp >= 5.
  int exp = std::bit_width(u) - 1;
  int shift = exp - 5;
  size_t idx = static_cast<size_t>(exp - 4) * kSubBuckets +
               static_cast<size_t>(u >> shift) - kSubBuckets;
  return std::min(idx, kNumBuckets - 1);
}

double Histogram::BucketLowerMs(size_t i) {
  size_t d = i / kSubBuckets;
  size_t sub = i % kSubBuckets;
  if (d == 0) return static_cast<double>(sub) * kUnitMs;
  uint64_t lo = (kSubBuckets + sub) << (d - 1);
  return static_cast<double>(lo) * kUnitMs;
}

double Histogram::BucketUpperMs(size_t i) {
  size_t d = i / kSubBuckets;
  if (d == 0) return BucketLowerMs(i) + kUnitMs;
  uint64_t width = 1ULL << (d - 1);
  return BucketLowerMs(i) + static_cast<double>(width) * kUnitMs;
}

void Histogram::Record(double value_ms) {
  if (std::isnan(value_ms)) return;
  buckets_[BucketIndex(value_ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value_ms);
  AtomicMinDouble(&min_, value_ms);
  AtomicMaxDouble(&max_, value_ms);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count ? min_.load(std::memory_order_relaxed) : 0;
  s.max = s.count ? max_.load(std::memory_order_relaxed) : 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (0-based, nearest-rank with interpolation).
  double target = q * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t n = buckets[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) > target) {
      // Linear interpolation inside this bucket.
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(n);
      double lo = BucketLowerMs(i);
      double hi = BucketUpperMs(i);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, min, max);
    }
    seen += n;
  }
  return max;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min < min) min = other.min;
  if (count == 0 || other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

Histogram::Snapshot Histogram::Snapshot::Delta(const Snapshot& before) const {
  Snapshot d = *this;
  d.count -= std::min(before.count, d.count);
  d.sum -= before.sum;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    d.buckets[i] -= std::min(before.buckets[i], d.buckets[i]);
  }
  return d;
}

void AppendJsonValue(std::string* out, const Histogram::Snapshot& s) {
  AppendJsonValue(out, Json()
                           .Add("count", s.count)
                           .Add("mean", s.Mean())
                           .Add("p50", s.P50())
                           .Add("p90", s.P90())
                           .Add("p99", s.P99())
                           .Add("max", s.max)
                           .Add("min", s.count ? s.min : 0.0));
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& owner) {
  audit::LockGuard lk(mu_);
  auto& slot = counters_[Key(name, owner)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& owner) {
  audit::LockGuard lk(mu_);
  auto& slot = histograms_[Key(name, owner)];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::Snap() const {
  RegistrySnapshot out;
  audit::LockGuard lk(mu_);
  for (const auto& [key, c] : counters_) out.counters[key.first] += c->Value();
  for (const auto& [key, h] : histograms_) {
    out.histograms[key.first].Merge(h->Snap());
  }
  return out;
}

}  // namespace obs
}  // namespace msplog
