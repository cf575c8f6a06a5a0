#include "sim/sim_env.h"

#include <time.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "audit/invariants.h"
#include "audit/lock_order.h"

namespace msplog {

namespace {

uint64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Sleep until an absolute CLOCK_MONOTONIC deadline with sub-100µs accuracy:
// clock_nanosleep most of the way, then spin the short remainder. Plain
// sleep_for overshoots by 50–100 µs, which at small time scales would distort
// composite response times by >10%.
void SleepUntilNs(uint64_t deadline_ns) {
  constexpr uint64_t kSpinMarginNs = 80'000;  // 80 µs
  uint64_t now = NowNs();
  if (deadline_ns > now + kSpinMarginNs) {
    uint64_t target = deadline_ns - kSpinMarginNs;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(target / 1000000000ULL);
    ts.tv_nsec = static_cast<long>(target % 1000000000ULL);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (NowNs() < deadline_ns) {
    // spin the final stretch
  }
}

}  // namespace

void SimEnvironment::UseFineTimerSlack() {
#if defined(__linux__)
  thread_local bool fine = false;
  if (fine) return;
  fine = true;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // 1 ns: the minimum
#endif
}

SimEnvironment::SimEnvironment(double time_scale)
    : time_scale_(time_scale), start_ns_(NowNs()),
      flight_recorder_([this] { return NowModelMs(); }) {
  // Ring overwrites become a visible counter: benches check it and warn in
  // their BENCH_JSON when a trace was silently truncated.
  tracer_.set_drop_counter(metrics_.GetCounter("obs.trace_dropped"));
  // Black-box wiring: bundles embed the tracer tail and the freezing
  // thread's held-lock summary, and every audit invariant violation in this
  // process freezes a bundle while this environment lives.
  flight_recorder_.set_tracer_tail_dump(
      [this] { return tracer_.DumpJson(/*max_events=*/256); });
  flight_recorder_.set_held_locks_dump([] {
    std::string out;
    for (const std::string& name :
         audit::LockOrderRegistry::Instance().HeldNamesByThisThread()) {
      if (!out.empty()) out += ", ";
      out += name;
    }
    return out;
  });
  violation_hook_id_ = audit::InvariantRegistry::Instance().AddViolationHook(
      [this](const std::string& invariant, const std::string& detail) {
        flight_recorder_.FreezeOnViolation(invariant, detail);
      });
}

SimEnvironment::~SimEnvironment() {
  audit::InvariantRegistry::Instance().RemoveViolationHook(violation_hook_id_);
}

void SimEnvironment::SleepModelMs(double ms) {
  if (time_scale_ <= 0.0 || ms <= 0.0) return;
  double real_ns = ms * time_scale_ * 1e6;
  SleepUntilNs(NowNs() + static_cast<uint64_t>(real_ns));
}

uint64_t SimEnvironment::ElapsedRealNs() const { return NowNs() - start_ns_; }

double SimEnvironment::NowModelMs() const {
  double real_ms = static_cast<double>(ElapsedRealNs()) / 1e6;
  if (time_scale_ <= 0.0) return real_ms;
  return real_ms / time_scale_;
}

}  // namespace msplog
