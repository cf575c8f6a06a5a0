// RecoveryCoordinator — the phased crash-recovery driver behind
// Msp::CrashRecovery (§4.3, restructured for instant restart following the
// on-demand REDO design of Sauer & Härder):
//
//   1. RunAnalysis()          — epoch bump persisted to the anchor, state
//                               re-initialization from the MSP checkpoint,
//                               and ONE bounded analysis pass (AnalyzeLog)
//                               whose tables give every session its replay
//                               work-list and every shared variable its
//                               newest value; the bytes read are kept. No
//                               session is replayed here.
//   2. PrepareOpen()          — recovery broadcast to the service domain and
//                               a fresh MSP checkpoint; after this the
//                               server is ready to accept traffic even
//                               though no session has replayed yet.
//   3. BeginBackgroundDrain() — invoked by Msp::Start once the mailbox is
//                               live: replays the remaining sessions in
//                               background priority order (smallest replay
//                               work-list first). The drain deliberately
//                               yields the pool between sessions so an
//                               on-demand replay — triggered by a request
//                               arriving for a not-yet-replayed session
//                               (Msp::HandleRequestMsg admission gate) —
//                               waits behind at most one background replay.
//
// The log is read once: every replay of this recovery, drain or on demand,
// parses its records from the scan's bytes (image()), shared read-only until
// the last session has replayed.
//
// A coordinator instance drives exactly one recovery; Msp::Start creates a
// fresh one per boot. Pool tasks capture the coordinator raw: Crash/Shutdown
// join the pool before the next Start can replace the instance.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "audit/mutex.h"
#include "common/status.h"

namespace msplog {

class Msp;
struct ScanImage;

class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(Msp* msp) : msp_(msp) {}

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Phase 1 — the bounded analysis pass. On return every surviving session
  /// exists (marked recovering) with its replay positions reconstructed,
  /// shared variables are rolled forward, and the recovery record holds
  /// its join with the facts the crash froze (Msp::CrashLocked).
  Status RunAnalysis();

  /// Phase 2 — recovery broadcast + fresh MSP checkpoint (Fig. 12). After
  /// this returns, accepting traffic is safe: replay happens per session,
  /// on demand or in the background.
  Status PrepareOpen();

  /// Phase 3 — stamp the open-for-traffic moment and start draining the
  /// not-yet-replayed sessions in the background, smallest work-list first.
  void BeginBackgroundDrain();

  /// The durable range the analysis scan read, for this recovery's replays;
  /// null once every session has replayed.
  std::shared_ptr<const ScanImage> image() const;

  /// Count one finished crash replay; the last session's drops the image.
  void OnSessionReplayed();

 private:
  /// One background drain step: claim and replay the next pending session
  /// from the priority queue, then resubmit itself while work remains.
  void DrainStep();

  Msp* msp_;
  uint32_t old_epoch_ = 0;     ///< epoch of the failure-free period that ended
  uint64_t msp_cp_lsn_ = 0;    ///< anchor's MSP checkpoint at boot
  uint64_t sessions_to_recover_ = 0;

  mutable audit::Mutex mu_{"recovery_coordinator"};
  /// Session ids still awaiting a background replay, priority order.
  std::deque<std::string> drain_queue_ GUARDED_BY(mu_);
  std::shared_ptr<const ScanImage> image_ GUARDED_BY(mu_);
  /// Sessions of this recovery not yet replayed; the image lives until 0.
  uint64_t replays_left_ GUARDED_BY(mu_) = 0;
};

}  // namespace msplog
