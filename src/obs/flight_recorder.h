// FlightRecorder — the crash black box of the observatory.
//
// At a simulated crash (Msp::Crash) or any audit invariant violation the
// recorder *freezes* a generation-stamped snapshot bundle: per registered
// server, a statusz JSON dump (log extents included), the in-flight session
// set and the log's durable LSN, plus the newest events of the environment's
// EventTracer and a summary of the locks held by the freezing thread. The
// recorder keeps no event ring of its own: the tracer (obs/trace.h) is the
// environment's single always-on ring, and a bundle freezes its tail.
// Bundles are bounded (oldest evicted) and immutable. A crashing server
// keeps its own bundle's CrashFacts for the recovery-side join
// (msp/recovery_coordinator.cc), which records them in the recovery's
// record, whose outage view (obs/recovery_timeline.h) they feed; the
// offline inspector (tools/msplog_inspect --bundle) re-derives the same
// fates from a dumped bundle plus the raw log image.
//
// The recorder is owned by SimEnvironment, so its bundles survive Msp
// crash/recovery cycles.
//
// Layering: like every obs component this file depends only on audit/ and
// injected callbacks — the environment passes its model clock, the tracer
// tail dump, and the held-lock summary; servers register opaque snapshot
// providers. scripts/lint_msplog.py enforces the boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/mutex.h"

namespace msplog {
namespace obs {

/// Per-server context captured at freeze time by a registered provider.
struct FlightSnapshot {
  std::string statusz_json;  ///< the server's DumpStatusz() at the freeze
  /// Ids of sessions that were started but not ended when the snapshot was
  /// taken — the set the outage view must account for.
  std::vector<std::string> inflight_sessions;
  uint64_t log_durable_lsn = 0;  ///< durable prefix at the freeze
};

/// What a crash bundle says about its crashed server. Recovery's outage
/// join and the offline inspector classify the in-flight sessions' fates
/// from these.
struct CrashFacts {
  uint64_t generation = 0;
  double frozen_at_ms = 0;
  /// The log's durable extent at the crash: records at or past it were
  /// written after the crash, by recovery.
  uint64_t durable_lsn = 0;
  std::vector<std::string> inflight_sessions;
};

/// One frozen black-box bundle. Immutable once created.
struct FlightBundle {
  bool frozen = false;      ///< false = "no such bundle" sentinel
  uint64_t generation = 0;  ///< crash generation (0 for invariant freezes)
  std::string actor;        ///< crashed server id ("" = invariant trigger)
  std::string trigger;      ///< "crash" or "invariant:<name>"
  std::string detail;
  std::string held_locks;   ///< locks held by the freezing thread
  double frozen_at_ms = 0;
  std::string tracer_tail_json;  ///< newest events of the environment tracer
  /// (server id, snapshot) — the crashed server only on a crash freeze,
  /// every registered server on an invariant freeze.
  std::vector<std::pair<std::string, FlightSnapshot>> snapshots;

  /// The crashed server's facts; nullopt unless this crash bundle holds
  /// that server's snapshot.
  std::optional<CrashFacts> Facts() const;
  std::string ToJson() const;
};

class FlightRecorder {
 public:
  /// Frozen bundles retained (oldest evicted), across every server: a
  /// forensic history, which recovery does not read.
  static constexpr size_t kMaxBundles = 4;

  /// `now_ms` stamps each bundle (the environment passes NowModelMs);
  /// it must be callable until the recorder is destroyed.
  explicit FlightRecorder(std::function<double()> now_ms);

  // --- environment wiring (set once at construction time) -----------------

  /// Dump callback for the tracer tail included in every bundle (may stay
  /// unset: bundles then carry "[]").
  void set_tracer_tail_dump(std::function<std::string()> dump);
  /// Callback describing the locks held by the calling thread (the
  /// environment passes the lock-order registry's held summary).
  void set_held_locks_dump(std::function<std::string()> dump);

  // --- server snapshot providers ------------------------------------------

  using SnapshotProvider = std::function<FlightSnapshot()>;
  /// Register / replace the snapshot provider for `actor`. The provider is
  /// invoked outside the recorder lock at freeze time; it must not call back
  /// into Freeze*.
  void SetSnapshotProvider(const std::string& actor, SnapshotProvider p);
  void ClearSnapshotProvider(const std::string& actor);

  // --- freezing -------------------------------------------------------------

  /// Freeze a bundle for a crashing server: that server's snapshot, stamped
  /// with its crash generation. Returns the bundle.
  FlightBundle FreezeOnCrash(const std::string& actor, uint64_t generation,
                             const std::string& detail = "");
  /// Freeze a bundle for an invariant violation: a snapshot of every
  /// registered server. Reentrancy-guarded per thread (a provider that
  /// itself trips an invariant cannot recurse).
  void FreezeOnViolation(const std::string& invariant,
                         const std::string& detail);

  // --- inspection -----------------------------------------------------------

  /// Retained bundles, oldest first.
  std::vector<FlightBundle> Bundles() const;
  /// Most recent crash bundle whose actor is `actor`; frozen=false if none.
  FlightBundle LatestBundleFor(const std::string& actor) const;
  uint64_t frozen_count() const;

 private:
  /// Build and retain one bundle. `actor` empty = snapshot every provider.
  FlightBundle Freeze(const std::string& actor, uint64_t generation,
                      const std::string& trigger, const std::string& detail);

  std::function<double()> now_ms_;

  mutable audit::Mutex mu_{"obs.flight_recorder"};
  std::deque<FlightBundle> bundles_ GUARDED_BY(mu_);
  uint64_t frozen_total_ GUARDED_BY(mu_) = 0;
  std::map<std::string, SnapshotProvider> providers_ GUARDED_BY(mu_);
  std::function<std::string()> tracer_tail_dump_ GUARDED_BY(mu_);
  std::function<std::string()> held_locks_dump_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace msplog
