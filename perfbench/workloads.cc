// The benchmark's three workloads on the paper's topology (end client ->
// MSP1 -> MSP2, §5.1 sizes), their measured phases, and the correctness gate
// every run passes before it reports a number.
//
//   paper_1c  one closed-loop client at time_scale 0.05 (model clock);
//   saturate  four closed-loop clients at time_scale 0 (software clock);
//   restart   64 preloaded sessions, then a fixed number of crash/restart
//             cycles of MSP1 at time_scale 0.02; three hot sessions call in
//             turn, one request at a time, from the moment Start() returns.
//
// Every run reports every end-to-end metric. paper_1c and saturate take the
// recovery metrics from short recovery tails, each on a fresh world whose
// history is only the warm-up (the same on every run); restart takes its
// client metrics from the hot calls.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "audit/invariants.h"
#include "bench.h"
#include "harness/paper_workload.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace msplog;

namespace {

constexpr size_t kPayloadBytes = 100;  // §5.1 argument and reply size
constexpr size_t kWriteBytes = 512;    // session write size
constexpr size_t kSessionVars = 16;    // 8 KB session state / 512 B writes
/// Closed-loop worlds a run measures at the least, however long they take.
constexpr int kMinWorlds = 3;

struct Shape {
  double time_scale = 0;
  int clients = 1;
  int sessions_per_client = 1;
  /// Per session, during set-up. At least kSessionVars + 1, so that the
  /// durability check of World::Verify can tell a lost write.
  int warmup_calls = 0;
  bool checkpoint_daemon = true;
  int tail_cycles = 0;       ///< recovery tail per world (paper_1c, saturate)
  double tail_time_scale = 0;  ///< the tail worlds' clock
  int tail_warmup_calls = 0;   ///< per session, the tail worlds' history
  int hot_sessions = 1;      ///< sessions calling after each Start()
  int hot_rounds = 1;        ///< calls of each hot session after each Start()
  /// Closed loop: calls per world; worlds follow one another until the
  /// run's time is spent.
  int calls_per_world = 0;
  /// Crash/restart cycles (restart): a fixed number of worlds of a fixed
  /// number of cycles, so every run scans and replays the same sequence of
  /// logs, however fast the host is.
  int worlds = 0;
  int cycles_per_world = 0;
};

bool ShapeFor(const std::string& name, Shape* s) {
  // Every log that is crash-recovered is written one request at a time,
  // so its layout is the same on every run: the analysis scan stops early
  // when a flush leaves 1-3 bytes of sector padding (the length prefix then
  // reads into the next sector), and which flush does so depends on how
  // concurrent appends interleave. Hence hot sessions call one after the
  // other, and a warm-up that stays below the 1 MB MSP-checkpoint trigger.
  //
  // saturate's tails run on the model clock: at time_scale 0 a recovery
  // takes about 2 ms of wall time, which load from outside the process
  // moves by half.
  if (name == "paper_1c") {
    *s = {.time_scale = 0.05, .warmup_calls = 50, .tail_cycles = 2,
          .tail_time_scale = 0.05, .tail_warmup_calls = 50,
          .calls_per_world = 1100};
  } else if (name == "saturate") {
    *s = {.time_scale = 0, .clients = 4, .warmup_calls = 100,
          .tail_cycles = 3, .tail_time_scale = 0.05, .tail_warmup_calls = 17,
          .calls_per_world = 16000};
  } else if (name == "restart") {
    // Daemon off: no MSP checkpoint ever forces a session checkpoint, so
    // every session replays its whole (sub-threshold) history each cycle.
    // 4 worlds x 14 cycles x 3 hot sessions x 6 calls = 1,008 hot calls, so
    // the pooled p99 has 10 calls beyond it.
    *s = {.time_scale = 0.02, .sessions_per_client = 64, .warmup_calls = 17,
          .checkpoint_daemon = false, .hot_sessions = 3, .hot_rounds = 6,
          .worlds = 4, .cycles_per_world = 14};
  } else {
    return false;
  }
  return true;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Usage {
  double cpu_us = 0;
  double vcsw = 0;
  double maxrss_mb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Run `f` and add the CPU time and context switches it took to `*acc`:
/// the benchmark's own checks and trace harvests are not the program's.
template <typename F>
void Excluding(Usage* acc, F&& f) {
  const Usage u0 = ReadUsage();
  f();
  const Usage u1 = ReadUsage();
  acc->cpu_us += u1.cpu_us - u0.cpu_us;
  acc->vcsw += u1.vcsw - u0.vcsw;
}

/// Everything a phase is measured against, taken at its start and end.
struct Snap {
  SimStats::Snapshot sim{};
  obs::MetricsRegistry::RegistrySnapshot reg;
  Usage usage;
  uint64_t wall_ns = 0;
};

Snap TakeSnap(SimEnvironment* env) {
  Snap s;
  s.sim = env->stats().Snap();
  s.reg = env->metrics().Snap();
  s.usage = ReadUsage();
  s.wall_ns = WallNs();
  return s;
}

obs::Histogram::Snapshot HistDelta(const Snap& b, const Snap& a,
                                   const std::string& name) {
  auto ia = a.reg.histograms.find(name);
  if (ia == a.reg.histograms.end()) return {};
  auto ib = b.reg.histograms.find(name);
  if (ib == b.reg.histograms.end()) return ia->second;
  return ia->second.Delta(ib->second);
}

double CounterDelta(const Snap& b, const Snap& a, const std::string& name) {
  auto ia = a.reg.counters.find(name);
  if (ia == a.reg.counters.end()) return 0;
  auto ib = b.reg.counters.find(name);
  const uint64_t before = ib == b.reg.counters.end() ? 0 : ib->second;
  return static_cast<double>(ia->second - before);
}

struct CallSample {
  double model_ms = 0;
  double wall_us = 0;
  uint32_t sends = 0;
  uint32_t busy = 0;
};

/// Client calls of one thread or phase.
struct Tally {
  std::vector<CallSample> samples;  ///< completed calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string wrong;  ///< first incorrect reply, if any

  void Merge(const Tally& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    if (wrong.empty()) wrong = o.wrong;
  }
  std::vector<double> Model() const {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.model_ms);
    return v;
  }
  std::vector<double> WallUs() const {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.wall_us);
    return v;
  }
};

/// One crash/restart cycle of MSP1.
struct CycleStats {
  double crash_ms = 0;  ///< Msp::Crash() call (model ms)
  double open_ms = 0;   ///< Msp::Start() call
  double drain_ms = 0;  ///< Start() until every session replayed
  double hot_tts_ms = -1;  ///< Start() until the first hot reply arrived
  uint64_t wall_ns = 0;    ///< crash through drain, checks excluded
  obs::RecoveryTimeline timeline;
};

/// One measured phase on one world: a closed loop, or crash/restart cycles.
struct Phase {
  Tally calls;  ///< closed-loop calls, or the hot calls of the cycles
  std::vector<CycleStats> cycles;
  Snap before, after;   ///< after: the checks' and harvests' CPU excluded
  uint64_t wall_ns = 0;  ///< checks and harvest pauses excluded
  SpanJoin join;         ///< traced: calls joined with the tracer's events
  TraceHarvest harvest;  ///< traced: every tracer event of the phase
  std::string log_image;  ///< traced cycles: MSP1's log from the scan start
};

/// One instance of the paper topology with its end clients and sessions.
class World {
 public:
  World(const Shape& shape, uint64_t seed, SpanLog* spans)
      : shape_(shape), seed_(seed), spans_(spans) {
    PaperWorkloadOptions o;
    o.config = PaperConfig::kLoOptimistic;
    o.time_scale = shape.time_scale;
    o.checkpoint_daemon = shape.checkpoint_daemon;
    wl_ = std::make_unique<PaperWorkload>(o);
  }
  ~World() {
    clients_.clear();  // endpoints unregister from the network first
    wl_.reset();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  SimEnvironment* env() { return wl_->env(); }
  Msp* msp1() { return wl_->msp1(); }
  SpanLog* spans() { return spans_; }
  int clients() const { return shape_.clients; }

  /// Start the servers, make the clients and run the warm-up (for restart:
  /// the pre-crash history): every session's calls, one at a time, in a
  /// seeded order.
  bool SetUp(std::string* why) {
    Status st = wl_->Start();
    if (!st.ok()) {
      *why = "Start: " + st.ToString();
      return false;
    }
    const uint64_t tag = SplitMix(seed_) & 0xffffff;
    std::vector<std::pair<int, int>> order;
    for (int c = 0; c < shape_.clients; ++c) {
      char name[32];
      std::snprintf(name, sizeof(name), "cl%06llx-%d",
                    static_cast<unsigned long long>(tag), c);
      clients_.push_back(wl_->MakeClient(name));
      sessions_.emplace_back();
      for (int k = 0; k < shape_.sessions_per_client; ++k) {
        // Fixed-length ids: every session's records have the same size.
        ClientSession s;
        s.msp = "msp1";
        char id[48];
        std::snprintf(id, sizeof(id), "%s/se%04d", name, k);
        s.session_id = id;
        sessions_.back().push_back(s);
        order.insert(order.end(), shape_.warmup_calls, {c, k});
      }
      arg_rng_.emplace_back(SplitMix(seed_ * 7919 + 1 + c));
    }
    std::mt19937_64 rng(SplitMix(seed_ * 31));
    std::shuffle(order.begin(), order.end(), rng);
    Tally all;
    for (const auto& [c, k] : order) Call(c, k, &all);
    if (all.failed > 0 || !all.wrong.empty()) {
      *why = "warm-up: " + std::to_string(all.failed) + " failed calls " +
             all.wrong;
      return false;
    }
    return Verify(why);
  }

  /// One synchronous call on session k of client c; checks the reply.
  bool Call(int c, int k, Tally* t) {
    ClientSession& s = sessions_[c][k];
    const uint64_t seqno = s.next_seqno;
    const Bytes arg = MakePayload(kPayloadBytes, arg_rng_[c]());
    Bytes reply;
    CallStats cs;
    Span span;
    span.model_start = env()->NowModelMs();
    span.wall_start_ns = WallNs();
    Status st = clients_[c]->Call(&s, "ServiceMethod1", arg, &reply, &cs);
    span.wall_end_ns = WallNs();
    ++t->attempted;
    if (!st.ok()) {
      ++t->failed;
      return false;
    }
    if (reply != MakePayload(kPayloadBytes, seqno + 7) && t->wrong.empty()) {
      t->wrong = s.session_id + " seqno " + std::to_string(seqno) +
                 ": reply differs from MakePayload(100, seqno + 7)";
    }
    t->samples.push_back(
        {cs.response_model_ms,
         static_cast<double>(span.wall_end_ns - span.wall_start_ns) / 1e3,
         cs.sends, cs.busy_replies});
    if (spans_->enabled()) {
      span.name = "client.call";
      span.session = s.session_id;
      span.seqno = seqno;
      span.model_end = env()->NowModelMs();
      spans_->Add(std::move(span));
    }
    return true;
  }

  /// Exactly-once and durability of every session at MSP1: the next
  /// expected seqno is the acknowledged calls + 1, and the last
  /// acknowledged request's session write is there. Request 1 sets every
  /// s<i> to MakePayload(512, i), which is also what request i < 16 writes,
  /// so a session needs 16 acknowledged requests before a lost write shows.
  bool Verify(std::string* why) {
    for (const auto& per_client : sessions_) {
      for (const ClientSession& s : per_client) {
        auto next = msp1()->PeekNextExpectedSeqno(s.session_id);
        if (!next.ok() || *next != s.next_seqno) {
          *why = s.session_id + ": next expected seqno " +
                 (next.ok() ? std::to_string(*next) : next.status().ToString()) +
                 ", acknowledged + 1 = " + std::to_string(s.next_seqno);
          return false;
        }
        const uint64_t acked = s.next_seqno - 1;
        if (acked < kSessionVars) {
          *why = s.session_id + ": " + std::to_string(acked) +
                 " acknowledged requests, too few to check durability";
          return false;
        }
        const std::string var = "s" + std::to_string(acked % kSessionVars);
        auto v = msp1()->PeekSessionVar(s.session_id, var);
        if (!v.ok() || *v != MakePayload(kWriteBytes, acked)) {
          *why = s.session_id + ": last write of request " +
                 std::to_string(acked) + " (" + var + ") lost";
          return false;
        }
      }
    }
    return GlobalChecks(why);
  }

  bool GlobalChecks(std::string* why) {
    const uint64_t violations =
        audit::InvariantRegistry::Instance().total_violations();
    const uint64_t misaligned = env()->stats().replay_misalignments.load();
    if (violations != 0 || misaligned != 0) {
      *why = "audit invariant violations " + std::to_string(violations) +
             ", replay misalignments " + std::to_string(misaligned);
      return false;
    }
    return true;
  }

  /// shape.hot_sessions distinct sessions, in a seeded order.
  std::vector<std::pair<int, int>> PickHot(std::mt19937_64* rng) {
    std::vector<std::pair<int, int>> all;
    for (int c = 0; c < shape_.clients; ++c) {
      for (int k = 0; k < shape_.sessions_per_client; ++k) all.emplace_back(c, k);
    }
    std::shuffle(all.begin(), all.end(), *rng);
    all.resize(std::min<size_t>(all.size(), shape_.hot_sessions));
    return all;
  }

  /// Crash MSP1 and restart it. The hot sessions call in turn, shape's
  /// hot_rounds times each: the first as soon as Start() returns, each
  /// further call as soon as the previous reply is in (one request at a
  /// time keeps the log layout fixed); meanwhile wait until every session
  /// has replayed.
  bool Cycle(const std::vector<std::pair<int, int>>& hot, Tally* t,
             CycleStats* out, std::string* why) {
    SimEnvironment* e = env();
    const uint64_t w0 = WallNs();
    Span crash{"msp.crash", "", 0, e->NowModelMs(), 0, w0, 0};
    msp1()->Crash();
    crash.model_end = e->NowModelMs();
    crash.wall_end_ns = WallNs();
    out->crash_ms = crash.model_end - crash.model_start;
    spans_->Add(crash);

    const uint64_t recovered_before = e->stats().sessions_recovered.load();
    Span start{"msp.start", "", 0, e->NowModelMs(), 0, WallNs(), 0};
    Status st = msp1()->Start();
    start.model_end = e->NowModelMs();
    start.wall_end_ns = WallNs();
    spans_->Add(start);
    if (!st.ok()) {
      *why = "restart: " + st.ToString();
      return false;
    }
    out->open_ms = start.model_end - start.model_start;

    Tally hot_t;
    double first_reply = -1;
    std::thread hot_caller([&] {
      for (int r = 0; r < shape_.hot_rounds; ++r) {
        for (const auto& [c, k] : hot) {
          if (Call(c, k, &hot_t) && first_reply < 0) {
            first_reply = e->NowModelMs();
          }
        }
      }
    });

    // Poll SimStats::sessions_recovered, one atomic load, and copy the
    // timeline (every session's provenance) only once it says done: the
    // copy costs enough CPU to show in cpu_us_per_req.
    Span drain{"recovery.drain_wait", "", 0, e->NowModelMs(), 0, WallNs(), 0};
    const uint64_t to_recover = msp1()->LastRecoveryTimeline().sessions_to_recover;
    const uint64_t give_up = WallNs() + 120'000'000'000ull;
    bool drained = false;
    while (WallNs() < give_up) {
      if (e->stats().sessions_recovered.load() - recovered_before >= to_recover &&
          msp1()->LastRecoveryTimeline().session_replays.size() >= to_recover) {
        drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    drain.model_end = e->NowModelMs();
    drain.wall_end_ns = WallNs();
    spans_->Add(drain);
    hot_caller.join();
    out->wall_ns = WallNs() - w0;
    if (!drained) {
      *why = "drain did not finish within 120 s";
      return false;
    }
    out->drain_ms = drain.model_end - start.model_start;
    t->Merge(hot_t);
    if (first_reply >= 0) out->hot_tts_ms = first_reply - start.model_start;
    out->timeline = msp1()->LastRecoveryTimeline();
    return true;
  }

  /// MSP1's log file from `from` to its end.
  std::string LogImage(uint64_t from) {
    LogFile* log = msp1()->log();
    SimDisk* disk = log->disk();
    const uint64_t size = disk->FileSize(log->file_name());
    Bytes image;
    if (from >= size ||
        !disk->ReadAt(log->file_name(), from, size - from, &image).ok()) {
      return {};
    }
    return image;
  }

 private:
  Shape shape_;
  uint64_t seed_;
  SpanLog* spans_;
  std::unique_ptr<PaperWorkload> wl_;
  std::vector<std::unique_ptr<ClientEndpoint>> clients_;
  std::vector<std::vector<ClientSession>> sessions_;
  std::vector<std::mt19937_64> arg_rng_;
};

/// Closed loop: every client calls its first session back to back until
/// `max_calls` calls have started. When traced, the clients pause whenever
/// the tracer may hold TraceHarvest::kWindowEvents events, so the ring is
/// harvested with no call in flight; the pauses are excluded from the
/// phase's wall time and CPU.
bool RunLoad(World* w, uint64_t max_calls, bool traced, Phase* out,
             std::string* why) {
  SimEnvironment* env = w->env();
  const int n = w->clients();
  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> calls{0};  // completed
  std::atomic<bool> pause{false};
  audit::Mutex mu{"perfbench.load"};
  audit::CondVar cv;
  int idle = 0;  // GUARDED_BY(mu): clients parked on `pause`
  std::vector<Tally> tallies(n);
  auto harvest = [&] {
    out->join.Add(w->spans()->Take(), out->harvest.Take(&env->tracer()));
  };
  if (traced) {  // start the phase with an empty ring
    (void)w->spans()->Take();
    env->tracer().Clear();
  }
  out->before = TakeSnap(env);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        if (pause.load()) {
          audit::UniqueLock lk(mu);
          ++idle;
          cv.notify_all();
          cv.wait(lk, [&] { return !pause.load(); });
          --idle;
          continue;
        }
        if (started.fetch_add(1) >= max_calls) break;
        w->Call(c, 0, &tallies[c]);
        calls.fetch_add(1);
      }
      audit::LockGuard lk(mu);  // a client that is done counts as parked
      ++idle;
      cv.notify_all();
    });
  }
  uint64_t run_ns = 0, mark = out->before.wall_ns;
  uint64_t window_calls = 64, last_calls = 0;
  Usage excluded;
  // Untraced, the clients run to the end on their own, with no thread of
  // the benchmark waking beside them.
  while (traced && calls.load() < max_calls) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (calls.load() - last_calls < window_calls) continue;
    run_ns += WallNs() - mark;
    Excluding(&excluded, [&] {
      {
        audit::UniqueLock lk(mu);
        pause.store(true);
        cv.wait(lk, [&] { return idle == n; });
      }
      // Let a late duplicate of a resent request (2 ms floor at time_scale
      // 0) finish on the servers before the copy.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      const uint64_t before_events = out->harvest.events();
      harvest();
      const uint64_t done = calls.load();
      const double per_call =
          static_cast<double>(out->harvest.events() - before_events) /
          static_cast<double>(std::max<uint64_t>(1, done - last_calls));
      window_calls = std::max<uint64_t>(
          8, static_cast<uint64_t>(TraceHarvest::kWindowEvents /
                                   std::max(1.0, per_call)));
      last_calls = done;
      {
        audit::LockGuard lk(mu);
        pause.store(false);
      }
      cv.notify_all();
    });
    mark = WallNs();
  }
  for (auto& t : threads) t.join();
  out->after = TakeSnap(env);
  out->after.usage.cpu_us -= excluded.cpu_us;
  out->after.usage.vcsw -= excluded.vcsw;
  out->wall_ns = run_ns + (out->after.wall_ns - mark);
  if (traced) harvest();
  for (const auto& t : tallies) out->calls.Merge(t);
  if (!out->calls.wrong.empty()) {
    *why = out->calls.wrong;
    return false;
  }
  return w->Verify(why);
}

/// `cycles` crash/restart cycles. When traced, the tracer is harvested after
/// every cycle, when the hot calls and the drain have finished.
bool RunCycles(World* w, int cycles, bool traced, std::mt19937_64* rng,
               Phase* out, std::string* why) {
  SimEnvironment* env = w->env();
  auto harvest = [&] {
    out->join.Add(w->spans()->Take(), out->harvest.Take(&env->tracer()));
  };
  if (traced) {
    (void)w->spans()->Take();
    env->tracer().Clear();
  }
  out->before = TakeSnap(env);
  Usage excluded;
  for (int i = 0; i < cycles; ++i) {
    CycleStats cs;
    if (!w->Cycle(w->PickHot(rng), &out->calls, &cs, why)) return false;
    out->wall_ns += cs.wall_ns;
    out->cycles.push_back(std::move(cs));
    if (traced) Excluding(&excluded, harvest);
    if (!out->calls.wrong.empty()) {
      *why = out->calls.wrong;
      return false;
    }
    bool verified = false;
    Excluding(&excluded, [&] { verified = w->Verify(why); });
    if (!verified) {
      *why = "after crash/restart cycle " + std::to_string(out->cycles.size()) +
             ": " + *why;
      return false;
    }
  }
  out->after = TakeSnap(env);
  out->after.usage.cpu_us -= excluded.cpu_us;
  out->after.usage.vcsw -= excluded.vcsw;
  if (traced) {
    out->log_image = w->LogImage(out->cycles.back().timeline.scan_start_lsn);
  }
  return true;
}

// ---- metrics --------------------------------------------------------------

/// Per-name median of per-world metric sets (all hold the same names).
Metrics MedianOf(const std::vector<Metrics>& per_world,
                 const std::vector<std::pair<std::string, std::string>>& names) {
  Metrics out;
  for (const auto& [name, unit] : names) {
    std::vector<double> v;
    for (const Metrics& m : per_world) v.push_back(m.Get(name));
    out.Set(name, Median(v), unit);
  }
  return out;
}

/// The quieter end of a run's per-world values: their lower quartile, or
/// the upper one for a rate. The host's CPUs are shared, and load from
/// outside the process only ever slows a world, in bursts of seconds to
/// minutes; every world does the same work, so the quieter ones read the
/// program's own cost, and a change to that cost moves them all.
double Quiet(std::vector<double> v, bool rate = false) {
  return Quantile(std::move(v), rate ? 0.75 : 0.25);
}

/// Quiet() for a per-world p99, which rests on a world's slowest 1% of
/// calls: a burst too short to move a world's median moves its p99, so more
/// worlds are affected, and the 10th percentile over worlds is taken.
double QuietTail(std::vector<double> v) { return Quantile(std::move(v), 0.1); }

/// The client-call end-to-end metrics of `phases` (one per world): Quiet()
/// (QuietTail() for the p99s) over worlds of each world's value. With `pool` the percentiles are taken
/// over every call of the run instead (restart's worlds have only hundreds
/// each).
void ClientMetrics(const std::vector<const Phase*>& phases, bool pool,
                   Metrics* m) {
  Tally all;
  std::vector<double> p50, p99, wall50, wall99, cpu, log_bytes, rps;
  for (const Phase* pp : phases) {
    const Phase& p = *pp;
    all.Merge(p.calls);
    const std::vector<double> model = p.calls.Model();
    const std::vector<double> wall = p.calls.WallUs();
    p50.push_back(Quantile(model, 0.5));
    p99.push_back(Quantile(model, 0.99));
    wall50.push_back(Quantile(wall, 0.5));
    wall99.push_back(Quantile(wall, 0.99));
    const double n = std::max<double>(1, p.calls.samples.size());
    cpu.push_back((p.after.usage.cpu_us - p.before.usage.cpu_us) / n);
    log_bytes.push_back(static_cast<double>(p.after.sim.disk_sectors_written -
                                            p.before.sim.disk_sectors_written) *
                        512.0 / n);
    rps.push_back(static_cast<double>(p.calls.samples.size()) /
                  (static_cast<double>(std::max<uint64_t>(1, p.wall_ns)) / 1e9));
  }
  if (pool) {
    p50 = {Quantile(all.Model(), 0.5)};
    p99 = {Quantile(all.Model(), 0.99)};
    wall50 = {Quantile(all.WallUs(), 0.5)};
    wall99 = {Quantile(all.WallUs(), 0.99)};
  }
  m->Set("response_p50_model_ms", Quiet(p50), "ms");
  m->Set("response_p99_model_ms", QuietTail(p99), "ms");
  m->Set("cpu_us_per_req", Quiet(cpu), "us");
  m->Set("log_bytes_per_req", Quiet(log_bytes), "B");
  m->Set("throughput_wall_rps", Quiet(rps, true), "1/s");
  m->Set("latency_p50_wall_us", Quiet(wall50), "us");
  m->Set("latency_p99_wall_us", QuietTail(wall99), "us");
}

/// Medians over every crash/restart cycle of `phases`. Cycles are not the
/// same work (the log grows from one to the next, and each picks other hot
/// sessions), so Quiet() does not apply.
void RecoveryMetrics(const std::vector<const Phase*>& phases, Metrics* m) {
  std::vector<double> open, drain, tts;
  for (const Phase* p : phases) {
    for (const auto& c : p->cycles) {
      open.push_back(c.open_ms);
      drain.push_back(c.drain_ms);
      if (c.hot_tts_ms >= 0) tts.push_back(c.hot_tts_ms);
    }
  }
  m->Set("open_model_ms", Median(open), "ms");
  m->Set("hot_tts_model_ms", Median(tts), "ms");
  m->Set("drain_model_ms", Median(drain), "ms");
}

/// Per-layer metrics of the request path, normalized per completed call.
void RequestLayers(const Phase& p, Metrics* m) {
  const Snap& b = p.before;
  const Snap& a = p.after;
  const double n = std::max<double>(1, p.calls.samples.size());
  double resends = 0, busy = 0;
  for (const auto& s : p.calls.samples) {
    resends += s.sends - 1;
    busy += s.busy;
  }
  auto d = [&](uint64_t SimStats::Snapshot::*f) {
    return static_cast<double>(a.sim.*f - b.sim.*f);
  };
  const double msgs = d(&SimStats::Snapshot::messages_sent);
  const double writes = d(&SimStats::Snapshot::disk_flushes);
  m->Set("client.resends_per_kreq", resends / n * 1000, "count");
  m->Set("client.busy_per_kreq", busy / n * 1000, "count");
  m->Set("net.msgs_per_req", msgs / n, "count");
  m->Set("net.bytes_per_req", d(&SimStats::Snapshot::message_bytes) / n, "B");
  m->Set("net.dv_entries_per_msg",
         d(&SimStats::Snapshot::dv_entries_attached) / std::max(1.0, msgs),
         "count");
  const auto disk_w = HistDelta(b, a, "disk.write_ms");
  m->Set("disk.writes_per_req", writes / n, "count");
  m->Set("disk.write_model_ms_p50", disk_w.P50(), "ms");
  m->Set("disk.write_model_ms_p99", disk_w.P99(), "ms");
  m->Set("disk.sectors_per_write",
         d(&SimStats::Snapshot::disk_sectors_written) / std::max(1.0, writes),
         "count");
  m->Set("disk.wasted_bytes_per_req",
         d(&SimStats::Snapshot::disk_bytes_wasted) / n, "B");
  const auto flush_wait = HistDelta(b, a, "log.flush_wait_ms");
  m->Set("log.records_per_req", d(&SimStats::Snapshot::log_records_appended) / n,
         "count");
  m->Set("log.bytes_per_req", d(&SimStats::Snapshot::log_bytes_appended) / n,
         "B");
  m->Set("log.flush_wait_model_ms_p50", flush_wait.P50(), "ms");
  m->Set("log.flush_wait_model_ms_p99", flush_wait.P99(), "ms");
  m->Set("log.flush_batch_bytes_p50",
         HistDelta(b, a, "log.flush_batch_bytes").P50(), "B");
  m->Set("log.arena_backpressure_waits_per_kreq",
         CounterDelta(b, a, "log.arena_backpressure_waits") / n * 1000,
         "count");
  // The msp.* histograms are shared by MSP1 and MSP2: both servers' requests.
  const auto queue = HistDelta(b, a, "msp.queue_wait_ms");
  const auto msp_flush = HistDelta(b, a, "msp.flush_wait_ms");
  m->Set("msp.queue_wait_ms_p50", queue.P50(), "ms");
  m->Set("msp.queue_wait_ms_p99", queue.P99(), "ms");
  m->Set("msp.execute_ms_p50", HistDelta(b, a, "msp.execute_ms").P50(), "ms");
  m->Set("msp.flush_wait_ms_p50", msp_flush.P50(), "ms");
  m->Set("msp.flush_wait_ms_p99", msp_flush.P99(), "ms");
  m->Set("proc.vcsw_per_req", (a.usage.vcsw - b.usage.vcsw) / n, "count");
  const double legs = CounterDelta(b, a, "flush.legs_requested");
  m->Set("flush.legs_per_req", legs / n, "count");
  m->Set("flush.requests_sent_per_req",
         CounterDelta(b, a, "flush.requests_sent") / n, "count");
  m->Set("flush.coalesced_frac",
         legs > 0 ? (CounterDelta(b, a, "flush.legs_coalesced") +
                     CounterDelta(b, a, "flush.watermark_skips")) / legs
                  : 0,
         "ratio");
  m->Set("flush.peer_flushes_saved_per_req",
         CounterDelta(b, a, "flush.peer_flushes_saved") / n, "count");
  m->Set("ckpt.session_per_kreq",
         d(&SimStats::Snapshot::checkpoints_session) / n * 1000, "count");
  m->Set("ckpt.msp_per_kreq", d(&SimStats::Snapshot::checkpoints_msp) / n * 1000,
         "count");
}

/// Per-layer metrics of the crash/restart cycles of one phase, per cycle.
void RecoveryLayers(const Phase& p, Metrics* m) {
  const double cycles = std::max<double>(1, p.cycles.size());
  std::vector<double> scan, bytes, records, post_cp, replayed, replay_ms,
      parallel, crash, start, start_self, drain;
  double on_demand = 0;
  for (const auto& c : p.cycles) {
    const obs::RecoveryTimeline& tl = c.timeline;
    scan.push_back(tl.analysis_scan_ms);
    bytes.push_back(static_cast<double>(tl.analysis_bytes_scanned));
    records.push_back(static_cast<double>(tl.analysis_records_scanned));
    post_cp.push_back(tl.post_scan_checkpoint_ms);
    double n = 0;
    for (const auto& r : tl.session_replays) {
      n += static_cast<double>(r.requests_replayed);
      replay_ms.push_back(r.replay_ms);
    }
    replayed.push_back(n);
    parallel.push_back(tl.max_parallel_replays);
    on_demand += static_cast<double>(tl.on_demand_replays);
    crash.push_back(c.crash_ms);
    start.push_back(c.open_ms);
    start_self.push_back(std::max(
        0.0, c.open_ms - tl.analysis_scan_ms - tl.post_scan_checkpoint_ms));
    drain.push_back(c.drain_ms - c.open_ms);
  }
  m->Set("disk.reads_per_cycle",
         static_cast<double>(p.after.sim.disk_reads - p.before.sim.disk_reads) /
             cycles,
         "count");
  m->Set("disk.read_model_ms_p50",
         HistDelta(p.before, p.after, "disk.read_ms").P50(), "ms");
  m->Set("recovery.scan_model_ms", Median(scan), "ms");
  m->Set("recovery.bytes_scanned", Median(bytes), "B");
  m->Set("recovery.records_scanned", Median(records), "count");
  m->Set("recovery.post_scan_checkpoint_model_ms", Median(post_cp), "ms");
  m->Set("recovery.replayed_per_cycle", Median(replayed), "count");
  m->Set("recovery.replay_model_ms_p50", Median(replay_ms), "ms");
  m->Set("recovery.max_parallel_replays", Median(parallel), "count");
  m->Set("recovery.on_demand_replays_per_cycle", on_demand / cycles, "count");
  m->Set("span.msp_crash_model_ms_p50", Median(crash), "ms");
  m->Set("span.msp_start_model_ms_p50", Median(start), "ms");
  m->Set("span.msp_start_self_model_ms_p50", Median(start_self), "ms");
  m->Set("span.drain_wait_model_ms_p50", Median(drain), "ms");
}

/// The operation mix of a traced request phase `p`, and the log image and
/// scan volume of the traced cycles `cycles`.
ProbeMix MixOf(const Phase& p, const Phase& cycles) {
  const Snap& b = p.before;
  const Snap& a = p.after;
  ProbeMix mix;
  const double n = std::max<double>(1, p.calls.samples.size());
  const auto sizes = HistDelta(b, a, "log.append_bytes");
  for (size_t i = 0; i < sizes.buckets.size() && sizes.count > 0; ++i) {
    const double share = static_cast<double>(sizes.buckets[i]) * 64.0 /
                         static_cast<double>(sizes.count);
    const double mid = (obs::Histogram::BucketLowerMs(i) +
                        obs::Histogram::BucketUpperMs(i)) / 2;
    for (long k = 0; k < std::lround(share); ++k) mix.record_bytes.push_back(mid);
  }
  const double msgs =
      static_cast<double>(a.sim.messages_sent - b.sim.messages_sent);
  mix.records_per_req = static_cast<double>(a.sim.log_records_appended -
                                            b.sim.log_records_appended) / n;
  mix.flush_waits_per_req =
      static_cast<double>(HistDelta(b, a, "log.flush_wait_ms").count) / n;
  mix.msgs_per_req = msgs / n;
  mix.bytes_per_msg =
      static_cast<double>(a.sim.message_bytes - b.sim.message_bytes) /
      std::max(1.0, msgs);
  mix.dv_entries_per_msg = static_cast<double>(a.sim.dv_entries_attached -
                                               b.sim.dv_entries_attached) /
                           std::max(1.0, msgs);
  mix.pool_tasks_per_req =
      static_cast<double>(HistDelta(b, a, "msp.queue_wait_ms").count) / n;
  mix.log_image = cycles.log_image;
  std::vector<double> records;
  for (const auto& c : cycles.cycles) {
    records.push_back(static_cast<double>(c.timeline.analysis_records_scanned));
  }
  mix.records_scanned_per_cycle = Median(records);
  return mix;
}

std::vector<std::pair<std::string, std::string>> NamesOf(const Metrics& m) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, value, unit] : m.items()) out.emplace_back(name, unit);
  return out;
}

void Fail(RunOutcome* out, const std::string& why) {
  out->correct = false;
  if (out->why_incorrect.empty()) out->why_incorrect = why;
}

}  // namespace

RunOutcome RunWorkload(const Args& args) {
  RunOutcome out;
  Shape shape;
  if (!ShapeFor(args.workload, &shape)) {
    Fail(&out, "unknown workload " + args.workload);
    return out;
  }
  const bool restart = args.workload == "restart";
  // Which sessions are hot, drawn anew for each world index: the two worlds
  // of a traced run's pair pick the same ones.
  auto hot_rng = [&](int i) {
    return std::mt19937_64(SplitMix(args.seed ^ (0x5eed + i)));
  };
  SpanLog spans;
  std::string why;
  Shape tail_shape = shape;
  tail_shape.time_scale = shape.tail_time_scale;
  tail_shape.warmup_calls = shape.tail_warmup_calls;
  std::vector<double> setup_s;  // of the measured worlds
  auto set_up = [&](const Shape& sh, std::unique_ptr<World>* w) {
    const uint64_t t0 = WallNs();
    *w = std::make_unique<World>(sh, args.seed, &spans);
    const bool ok = (*w)->SetUp(&why);
    if (&sh == &shape) setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    return ok;
  };
  auto count = [&](const Phase& p) {
    out.attempted += p.calls.attempted;
    out.failed += p.calls.failed;
  };

  // The run measures several fresh worlds, one after another: closed-loop
  // worlds of a fixed number of calls (so each one's in-memory log, and
  // with it the peak RSS, has the same size) until the run's time is spent,
  // or restart's fixed number of worlds of a fixed number of cycles. A
  // world's threads, and the tracer stripes they hash to, are drawn anew
  // each time, and the samples spread over the whole run, so the quieter
  // worlds (Quiet) ride out bursts of load from outside the process. A
  // traced run measures a pair of worlds, built the same way, at each step:
  // one untraced and one traced, in turns first, so that neither always
  // runs on a warmer host. The median over pairs of their difference is the
  // tracing overhead. paper_1c and saturate precede each step with a
  // recovery tail on a world of its own, whose history is only the warm-up.
  const int passes = args.trace ? 2 : 1;
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t measured_ns = 0;
  double peak_rss_mb = 0;
  std::vector<Phase> plain, traced, tails;
  for (int i = 0; restart ? i < shape.worlds
                          : (measured_ns < budget_ns || i < kMinWorlds);
       ++i) {
    std::unique_ptr<World> w;
    if (!restart) {
      tails.emplace_back();
      spans.set_enabled(args.trace);
      std::mt19937_64 rng = hot_rng(i);
      const bool ok = set_up(tail_shape, &w) &&
                      RunCycles(w.get(), shape.tail_cycles, args.trace, &rng,
                                &tails.back(), &why) &&
                      w->GlobalChecks(&why);
      spans.set_enabled(false);
      count(tails.back());
      if (!ok) {
        Fail(&out, why);
        return out;
      }
      w.reset();
      malloc_trim(0);
    }
    plain.emplace_back();
    if (args.trace) traced.emplace_back();
    for (int pass = 0; pass < passes; ++pass) {
      const bool on = args.trace && (i + pass) % 2 == 1;
      Phase* p = on ? &traced.back() : &plain.back();
      if (!set_up(shape, &w)) {
        Fail(&out, why);
        return out;
      }
      std::mt19937_64 rng = hot_rng(i);
      spans.set_enabled(on);
      const bool ok =
          restart ? RunCycles(w.get(), shape.cycles_per_world, on, &rng, p, &why)
                  : RunLoad(w.get(), shape.calls_per_world, on, p, &why);
      spans.set_enabled(false);
      count(*p);
      measured_ns += p->wall_ns;
      if (!ok || !w->GlobalChecks(&why)) {
        Fail(&out, why);
        return out;
      }
      // The peak RSS is read after the first world (and its tail), the
      // same work on every run: later worlds raise the high-water mark by
      // what the allocator kept from earlier ones, and paper_1c and
      // saturate run as many worlds as the host manages.
      if (peak_rss_mb == 0) peak_rss_mb = ReadUsage().maxrss_mb;
      // Hand the world's heap back before the next one.
      w.reset();
      malloc_trim(0);
    }
  }
  const int worlds = static_cast<int>(plain.size());
  auto ptrs = [](const std::vector<Phase>& phases) {
    std::vector<const Phase*> v;
    for (const Phase& p : phases) v.push_back(&p);
    return v;
  };

  Metrics e2e;
  e2e.Set("setup_s", Median(setup_s), "s");
  ClientMetrics(ptrs(plain), restart, &e2e);
  const std::vector<const Phase*> recovered = ptrs(restart ? plain : tails);
  RecoveryMetrics(recovered, &e2e);
  e2e.Set("peak_rss_mb", peak_rss_mb, "MB");

  // Provenance: what was measured, on which clock, from how many samples.
  Tally all;
  for (const Phase& p : plain) all.Merge(p.calls);
  size_t cycles = 0;
  for (const Phase* p : recovered) cycles += p->cycles.size();
  double resent = 0;
  for (const auto& c : all.samples) resent += c.sends > 1 ? 1 : 0;
  const Phase& last = *recovered.back();
  char line[640];
  std::snprintf(
      line, sizeof(line),
      "# workload=%s seed=%llu clock=%s time_scale=%g recovery_time_scale=%g "
      "clients=%d sessions=%d worlds=%d calls=%zu resent_pct=%.3f cycles=%zu "
      "log_image_bytes=%llu build=%s audit=%s",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      shape.time_scale > 0 ? "model" : "software", shape.time_scale,
      restart ? shape.time_scale : shape.tail_time_scale, shape.clients,
      shape.clients * shape.sessions_per_client, worlds, all.samples.size(),
      100 * resent / std::max<double>(1, all.samples.size()), cycles,
      static_cast<unsigned long long>(
          last.cycles.empty() ? 0 : last.cycles.back().timeline.scan_end_lsn),
      PERFBENCH_BUILD_TYPE, MSPLOG_AUDIT_ENABLED ? "ON" : "OFF");
  out.notes.push_back(line);
  std::string rates = "# per-world calls/s:";
  for (const Phase& p : plain) {
    rates += " " + std::to_string(static_cast<int>(
        static_cast<double>(p.calls.samples.size()) /
        (static_cast<double>(std::max<uint64_t>(1, p.wall_ns)) / 1e9)));
  }
  out.notes.push_back(rates);

  if (!args.trace) {
    out.metrics = std::move(e2e);
    return out;
  }

  // ---- traced run: per-layer metrics of the traced passes ---------------
  std::vector<Metrics> per_world(worlds);
  SpanJoin join;
  uint64_t events = 0, dropped = 0, missed = 0;
  for (int i = 0; i < worlds; ++i) {
    RequestLayers(traced[i], &per_world[i]);
    RecoveryLayers(restart ? traced[i] : tails[i], &per_world[i]);
    if (!restart) dropped += tails[i].harvest.dropped();
    join.Add(traced[i].join);
    events += traced[i].harvest.events();
    dropped += traced[i].harvest.dropped();
    missed += traced[i].harvest.missed();
  }
  Metrics& m = out.metrics;
  m = MedianOf(per_world, NamesOf(per_world[0]));
  join.Emit(&m);

  // Tracing overhead: each pair's traced world against its untraced twin.
  const std::string lat = restart ? "hot_tts_model_ms"
                          : shape.time_scale > 0 ? "response_p50_model_ms"
                                                 : "latency_p50_wall_us";
  auto pct = [](double v, double base) {
    return base > 0 ? (v - base) / base * 100 : 0;
  };
  auto e2e_of = [&](const std::vector<const Phase*>& phases) {
    Metrics x;
    ClientMetrics(phases, restart, &x);
    RecoveryMetrics(phases, &x);
    return x;
  };
  std::vector<double> lat_pct, cpu_pct;
  for (int i = 0; i < worlds; ++i) {
    const Metrics off = e2e_of({&plain[i]});
    const Metrics on = e2e_of({&traced[i]});
    lat_pct.push_back(pct(on.Get(lat), off.Get(lat)));
    cpu_pct.push_back(pct(on.Get("cpu_us_per_req"), off.Get("cpu_us_per_req")));
  }
  m.Set("trace.overhead_latency_pct", Median(lat_pct), "%");
  m.Set("trace.overhead_cpu_pct", Median(cpu_pct), "%");
  const Metrics with_spans = e2e_of(ptrs(traced));
  m.Set("trace.events", static_cast<double>(events), "count");
  m.Set("trace.dropped", static_cast<double>(dropped), "count");
  m.Set("trace.missed_at_harvest", static_cast<double>(missed), "count");
  size_t traced_calls = 0;
  for (const Phase& p : traced) traced_calls += p.calls.samples.size();
  m.Set("trace.calls", static_cast<double>(traced_calls), "count");
  if (dropped > 0) {
    Fail(&out, "traced run dropped " + std::to_string(dropped) +
                   " tracer events: the per-layer join is incomplete");
    return out;
  }

  RunLayerProbes(MixOf(traced.back(), restart ? traced.back() : tails.back()),
                 with_spans.Get("cpu_us_per_req"), &m);
  if (!args.spans_out.empty() && !spans.Write(args.spans_out)) {
    Fail(&out, "cannot write spans to " + args.spans_out);
  }
  return out;
}

}  // namespace perfbench
