// Observability metrics — process-wide named counters and log-bucketed
// latency histograms.
//
// Design constraints (this is the measurement substrate the perf PRs report
// against, so it must not perturb what it measures):
//
//   * hot-path cost is one relaxed atomic RMW per Record/Add — no locks, no
//     allocation, no branches beyond the bucket computation;
//   * histograms use HDR-style log buckets (32 sub-buckets per power of two
//     of microseconds → ≤ 1/32 ≈ 3% relative quantile error) so p50/p90/p99
//     are meaningful from sub-microsecond appends to multi-second recoveries
//     without per-sample storage;
//   * snapshots are plain values: merge-able across histograms (multi-MSP
//     aggregation) and subtract-able (per-benchmark-phase deltas);
//   * registry handles are stable pointers — look up once, record forever.
//
// All values recorded are MODEL milliseconds (or unitless sizes/counts; a
// histogram does not care). The registry lives in SimEnvironment, so every
// component that can sleep can also measure.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/mutex.h"
#include "obs/json.h"  // JsonEscape, the JSON writer

namespace msplog {
namespace obs {

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Log-bucketed latency/size histogram.
///
/// A recorded value v (model ms) is quantized to microseconds and binned:
/// values below 32 µs get one bucket per microsecond; above that, 32
/// sub-buckets per power of two. Bucket boundaries are static functions so
/// tests can verify them directly.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 32;      // per power of two
  static constexpr size_t kDecades = 40;         // covers ~2^44 µs ≈ 5 hours
  static constexpr size_t kNumBuckets = kSubBuckets * kDecades;

  /// Bucket index for a value in model milliseconds.
  static size_t BucketIndex(double value_ms);
  /// Inclusive lower / exclusive upper bound of bucket `i`, in model ms.
  static double BucketLowerMs(size_t i);
  static double BucketUpperMs(size_t i);

  /// Plain-value copy; merge-able and subtract-able.
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;  ///< meaningless when count == 0
    double max = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const { return count ? sum / static_cast<double>(count) : 0; }
    /// Quantile estimate via linear interpolation inside the owning bucket,
    /// clamped to the observed [min, max]. q in [0, 1].
    double Quantile(double q) const;
    double P50() const { return Quantile(0.50); }
    double P90() const { return Quantile(0.90); }
    double P99() const { return Quantile(0.99); }

    /// Pointwise sum (aggregate several histograms / processes).
    void Merge(const Snapshot& other);
    /// Counts/sum since `before` (a prior snapshot of the SAME histogram).
    /// min/max are kept from *this — a delta cannot reconstruct them.
    Snapshot Delta(const Snapshot& before) const;
  };

  void Record(double value_ms);
  Snapshot Snap() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// A snapshot as a JSON object — {"count":N,"mean":..,"p50":..,"p90":..,
/// "p99":..,"max":..,"min":..} — so Json::Add / JsonArray::Push take
/// snapshots directly.
void AppendJsonValue(std::string* out, const Histogram::Snapshot& s);

/// Named registry. Get* interns the name on first use and returns a pointer
/// that stays valid for the registry's lifetime; the fast path after interning
/// is the metric's own relaxed atomic.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Plain-value copy of everything, for reporting.
  struct RegistrySnapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  RegistrySnapshot Snap() const;

  /// One JSON object: {"counters":{...},"histograms":{...}}.
  std::string ToJson() const;

 private:
  mutable audit::Mutex mu_{"obs.metrics"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace msplog
