// SimEnvironment — the clock of the reproduction.
//
// The paper's evaluation ran on real hardware: 7200 RPM disks (~4.5–8 ms per
// log flush) and 100 Mbps Ethernet (~3.6 ms round trips). Re-running 20K
// requests at those latencies would take minutes per configuration, so every
// latency in msplog is expressed in *model milliseconds* and realized as a
// real sleep of `model_ms × time_scale`:
//
//   time_scale = 0    sleeps are no-ops; unit tests run instantly and all
//                     logic (logging, recovery, orphan detection) still runs.
//   time_scale = 0.1  one model millisecond costs 100 µs of wall time;
//                     benchmarks measure wall time and divide by the scale to
//                     report model milliseconds comparable to the paper's.
//
// Concurrency effects are preserved because the sleeps are real: parallel
// distributed log flushes overlap, a single simulated disk serializes its
// I/Os (mutex held across the sleep), thread pools saturate naturally, and
// every receiving thread sleeps until its next message's arrival time, so
// messages in flight overlap with each other and with the receiver's work.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/event_count.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msplog {

/// Global counters describing simulator activity. All fields are cumulative.
struct SimStats {
  std::atomic<uint64_t> disk_flushes{0};
  std::atomic<uint64_t> disk_sectors_written{0};
  std::atomic<uint64_t> disk_bytes_wasted{0};    ///< sector-padding bytes
  std::atomic<uint64_t> disk_reads{0};
  std::atomic<uint64_t> disk_bytes_reclaimed{0};  ///< log GC (hole punching)
  std::atomic<uint64_t> messages_sent{0};
  std::atomic<uint64_t> messages_dropped{0};
  std::atomic<uint64_t> message_bytes{0};
  std::atomic<uint64_t> dv_entries_attached{0};  ///< DV size overhead (§3.1)
  std::atomic<uint64_t> log_records_appended{0};
  std::atomic<uint64_t> log_bytes_appended{0};
  std::atomic<uint64_t> distributed_flushes{0};
  std::atomic<uint64_t> requests_replayed{0};
  std::atomic<uint64_t> sessions_recovered{0};
  std::atomic<uint64_t> orphans_detected{0};
  /// Replay found a log record that does not match the re-execution — the
  /// service method violated the determinism contract.
  std::atomic<uint64_t> replay_misalignments{0};
  std::atomic<uint64_t> checkpoints_session{0};
  std::atomic<uint64_t> checkpoints_shared_var{0};
  std::atomic<uint64_t> checkpoints_msp{0};

  /// Plain-value copy of the counters (for before/after deltas in tests).
  struct Snapshot {
    uint64_t disk_flushes, disk_sectors_written, disk_bytes_wasted,
        disk_reads, disk_bytes_reclaimed, messages_sent, messages_dropped,
        message_bytes, dv_entries_attached, log_records_appended,
        log_bytes_appended, distributed_flushes, requests_replayed,
        sessions_recovered, orphans_detected, replay_misalignments,
        checkpoints_session, checkpoints_shared_var, checkpoints_msp;
  };
  Snapshot Snap() const {
    return Snapshot{disk_flushes.load(),
                    disk_sectors_written.load(),
                    disk_bytes_wasted.load(),
                    disk_reads.load(),
                    disk_bytes_reclaimed.load(),
                    messages_sent.load(),
                    messages_dropped.load(),
                    message_bytes.load(),
                    dv_entries_attached.load(),
                    log_records_appended.load(),
                    log_bytes_appended.load(),
                    distributed_flushes.load(),
                    requests_replayed.load(),
                    sessions_recovered.load(),
                    orphans_detected.load(),
                    replay_misalignments.load(),
                    checkpoints_session.load(),
                    checkpoints_shared_var.load(),
                    checkpoints_msp.load()};
  }
};

/// Shared simulation context: time scaling and statistics. One per test or
/// benchmark scenario; every SimDisk, SimNetwork and Msp holds a pointer.
class SimEnvironment {
 public:
  explicit SimEnvironment(double time_scale = 0.0);
  ~SimEnvironment();

  double time_scale() const { return time_scale_; }

  /// Sleep for `ms` model milliseconds (i.e. `ms * time_scale` real ms).
  /// No-op when the scale is zero or `ms <= 0`.
  void SleepModelMs(double ms);

  /// Wall-clock nanoseconds since environment construction.
  uint64_t ElapsedRealNs() const;

  /// Model milliseconds since environment construction (elapsed / scale).
  /// Returns elapsed real ms when the scale is zero.
  double NowModelMs() const;

  /// Sets the calling thread's kernel timer slack to its minimum, once per
  /// thread, so its timed waits end within a few µs of their deadline
  /// instead of the default 50 µs late. For threads that sleep until a
  /// model-time deadline, such as a message's arrival. Linux only.
  static void UseFineTimerSlack();

  /// msplog::kSanitized: real-time accuracy is not to be expected.
  static constexpr bool kSanitized = ::msplog::kSanitized;

  /// The real wait for a model-time timeout (a lost message, a daemon's
  /// interval): `model_ms` x scale, at least 1 ms. At scale 0 ("as fast as
  /// possible") a floor that must outlast a healthy peer's round trip, or
  /// resends fire spuriously and corrupt exact-count expectations.
  std::chrono::milliseconds RealTimeout(double model_ms) const {
    if (time_scale_ <= 0.0) return std::chrono::milliseconds(kFastWaitFloorMs);
    return std::chrono::milliseconds(
        std::max<int64_t>(1, static_cast<int64_t>(model_ms * time_scale_)));
  }

  SimStats& stats() { return stats_; }
  const SimStats& stats() const { return stats_; }

  /// Named counters and histograms for everything in this environment.
  /// Handles are stable; look them up once and record with relaxed atomics.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Request-lifecycle event tracer: the environment's one event ring,
  /// bounded and always on.
  obs::EventTracer& tracer() { return tracer_; }
  const obs::EventTracer& tracer() const { return tracer_; }

  /// Crash black box: frozen snapshot bundles, each with the tracer's tail.
  /// Owned here so the bundles survive Msp crash/recovery; frozen
  /// automatically on any audit invariant violation via a registry hook
  /// installed at construction.
  obs::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

 private:
  /// RealTimeout's floor; sanitized builds get a proportionally larger one.
  static constexpr int64_t kFastWaitFloorMs = kSanitized ? 40 : 2;

  double time_scale_;
  uint64_t start_ns_;
  SimStats stats_;
  obs::MetricsRegistry metrics_;
  obs::EventTracer tracer_;
  obs::FlightRecorder flight_recorder_;  ///< after tracer_: dumps its tail
  int violation_hook_id_ = 0;
};

}  // namespace msplog
