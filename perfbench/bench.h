// Shared declarations of the msplog end-to-end benchmark.
//
// The benchmark drives the paper's topology (end client -> MSP1 -> MSP2,
// harness/paper_workload.h) only through public functions, measures one
// workload per run and prints one JSON result line. See PROVENANCE.md for
// the workloads, clocks and metric definitions.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "audit/mutex.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< trace runs: where the span log is written
};

/// Named metric values of one run, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;
  const std::vector<std::tuple<std::string, double, std::string>>& items()
      const {
    return items_;
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> items_;
};

/// Result of one benchmark run.
struct RunOutcome {
  bool correct = true;
  std::string why_incorrect;  ///< first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;  ///< provenance lines printed before JSON
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

uint64_t WallNs();

/// One benchmark-side span around a public call into the program.
struct Span {
  std::string name;      ///< "client.call", "msp.crash", "msp.start", ...
  std::string session;   ///< client.call: the session id
  uint64_t seqno = 0;    ///< client.call: the request seqno
  double model_start = 0;  ///< SimEnvironment::NowModelMs at entry
  double model_end = 0;
  uint64_t wall_start_ns = 0;
  uint64_t wall_end_ns = 0;
};

/// In-memory span log, written out when the run ends. When disabled,
/// recording is a single branch. Thread safe.
class SpanLog {
 public:
  void set_enabled(bool v) { enabled_.store(v, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Add(Span s);
  /// Spans recorded since the last Take(); the log keeps a copy for Write.
  std::vector<Span> Take();
  /// Write every span ever recorded as JSON lines; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable msplog::audit::Mutex mu_{"perfbench.spans"};
  std::vector<Span> pending_ GUARDED_BY(mu_);
  std::vector<Span> all_ GUARDED_BY(mu_);
};

/// Per-layer self times from joining the benchmark's client.call spans with
/// the program's EventTracer events of the same requests (linked by
/// session/seqno -> trace_id and parent_span_id). Fed one harvest window at
/// a time; every call of a window has completed when it is harvested.
class SpanJoin {
 public:
  void Add(const std::vector<Span>& spans,
           const std::vector<msplog::obs::TraceEvent>& events);
  /// Pool another join's samples into this one.
  void Add(const SpanJoin& other);
  /// Set "net.transit_model_ms" and the "span.*" metrics (p50 over joined
  /// requests).
  void Emit(Metrics* out) const;

 private:
  size_t calls_ = 0;
  std::vector<double> client_, transit_, q1_, exec_self1_, flush1_,
      reply_self1_, req2_, q2_, exec2_;
};

/// Drains the EventTracer's ring at quiescent points. The ring is striped
/// per thread (8 x 8,192 events), so it is emptied long before any stripe
/// could wrap; overwrites are counted all the same. An event a background
/// thread records between the copy and the clear is not overwritten but
/// missed; the gaps in the tracer's global sequence numbers count those.
class TraceHarvest {
 public:
  /// Copy and clear the ring.
  std::vector<msplog::obs::TraceEvent> Take(msplog::obs::EventTracer* tracer);
  uint64_t events() const { return events_; }
  /// Events the ring overwrote (EventTracer::dropped) before a harvest.
  uint64_t dropped() const { return overwritten_; }
  /// Events recorded between a harvest's copy and its clear.
  uint64_t missed() const;

  /// Harvest when this many events may have accumulated; far below one
  /// stripe's capacity, whatever the threads' spread over the stripes.
  static constexpr uint64_t kWindowEvents = 6000;

 private:
  uint64_t events_ = 0;
  uint64_t overwritten_ = 0;
  uint64_t min_seq_ = ~0ull;
  uint64_t max_seq_ = 0;
};

/// Inputs of the layer probes: the workload's observed operation mix.
struct ProbeMix {
  std::vector<double> record_bytes;  ///< sampled log append sizes
  double records_per_req = 0;
  double flush_waits_per_req = 0;   ///< LogFile::FlushUpTo calls per request
  double msgs_per_req = 0;
  double bytes_per_msg = 0;
  double dv_entries_per_msg = 0;
  double pool_tasks_per_req = 0;
  std::string log_image;             ///< bytes of MSP1's log file
  double records_scanned_per_cycle = 0;
};

/// Replay `mix` through LogFile, Message, SimNetwork, ThreadPool and
/// LogScanner at time_scale 0 and set "probe.*" (ns per operation) and
/// "ledger.*" (cost x count) metrics. `cpu_us_per_req` is the traced
/// phase's CPU per request, the ledger's denominator.
void RunLayerProbes(const ProbeMix& mix, double cpu_us_per_req, Metrics* out);

/// Run one workload ("paper_1c", "saturate" or "restart").
RunOutcome RunWorkload(const Args& args);

}  // namespace perfbench
