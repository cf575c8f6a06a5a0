// SimNetwork — in-process unreliable messaging between named endpoints.
//
// Models the paper's networking assumptions (§2.1): communication is
// unreliable (messages may be lost, duplicated, or arrive out of order) and
// has a configurable one-way latency plus a 100 Mbps bandwidth term. Crashed
// processes unregister their endpoint; messages addressed to them vanish,
// exactly like packets sent to a dead host.
//
// Latencies are model milliseconds realized through SimEnvironment. Send
// stamps each packet with its arrival time and hands it straight to the
// receiver's Mailbox; the receiving thread itself sleeps until the packet is
// due. With time_scale = 0 every packet is due when sent and delivery is
// immediate (but drop/duplicate faults still apply), so unit tests of the
// retry logic run instantly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/mutex.h"
#include "common/bytes.h"
#include "common/event_count.h"
#include "common/mpsc_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/sim_env.h"

namespace msplog {

/// A message as it appears on the wire: opaque encoded bytes plus addressing.
struct Packet {
  std::string from;
  std::string to;
  Bytes wire;
};

/// Per-endpoint receive queue that also times delivery. Closed when the
/// endpoint unregisters.
///
/// One consumer: every endpoint has a single receiving thread (an MSP's
/// dispatch loop, a client's Call, the state server's loop), and only that
/// thread calls Pop / PopUntil. Push and Close may come from any thread.
///
/// Hot-path shape: Push lands on a lock-free MPSC ring, so handing a packet
/// to an endpoint never contends with the consumer. Each packet carries its
/// arrival time. The consumer moves packets that are not yet due into its
/// own heap, ordered by arrival time, and sleeps until the earliest one is
/// due, with its timer slack at the minimum: once a delayed packet is due,
/// delivering it costs one wakeup, the receiver's own, on time. A packet
/// due when sent (time_scale 0) skips the heap and the clock read. The
/// consumer parks on an EventCount (common/event_count.h).
class Mailbox {
 public:
  explicit Mailbox(SimEnvironment* env) : env_(env) {}

  /// Blocks until a packet is due (true), the mailbox closes or
  /// `deadline_real_ns` (SimEnvironment::ElapsedRealNs clock) passes. Pop
  /// waits without a deadline.
  bool PopUntil(Packet* out, uint64_t deadline_real_ns);
  bool Pop(Packet* out) { return PopUntil(out, kNever); }

  /// Queues `p` for delivery at `due_real_ns` (SimEnvironment::ElapsedRealNs
  /// clock); 0 means due now. Dropped when the mailbox is closed.
  void Push(Packet p, uint64_t due_real_ns);
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Waits that a lost wakeup left to the re-poll bound (EventCount).
  uint64_t repoll_rescues() const { return idle_.rescues(); }

 private:
  struct Timed {
    uint64_t due_real_ns = 0;
    uint64_t seq = 0;  // FIFO tiebreaker, stamped by the consumer
    Packet packet;
  };
  /// Min-heap order on (due_real_ns, seq).
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const {
      if (a.due_real_ns != b.due_real_ns) return a.due_real_ns > b.due_real_ns;
      return a.seq > b.seq;
    }
  };
  static constexpr uint64_t kNever = UINT64_MAX;

  /// Consumer only: keeps `t` in the heap until it is due.
  void Hold(Timed t);

  SimEnvironment* env_;
  MpscQueue<Timed> queue_{256, "mailbox.overflow"};
  std::atomic<bool> closed_{false};
  EventCount idle_{"mailbox"};
  /// Packets not yet due, as a heap on Later. Touched only by the single
  /// consumer thread, so no lock.
  std::vector<Timed> pending_;
  uint64_t next_seq_ = 0;
};

/// Probabilistic fault injection for a link (directed).
struct FaultPlan {
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  /// Extra uniform delay in [0, reorder_jitter_ms) per message; with nonzero
  /// jitter, messages can overtake one another.
  double reorder_jitter_ms = 0.0;
};

class SimNetwork {
 public:
  explicit SimNetwork(SimEnvironment* env, uint64_t seed = 7);
  ~SimNetwork();

  /// Register a named endpoint; returns its mailbox (owned by the network).
  std::shared_ptr<Mailbox> Register(const std::string& name);

  /// Unregister (crash / shutdown): closes the mailbox; in-flight and future
  /// packets to this endpoint are dropped. A packet belongs to the
  /// incarnation registered when it was sent: a later Register of the same
  /// name does not receive it.
  void Unregister(const std::string& name);

  /// Send `wire` from `from` to `to`. Applies link latency, bandwidth and
  /// fault plan, stamps the arrival time and queues the packet at the
  /// receiver. Returns immediately (the receiver times delivery).
  void Send(const std::string& from, const std::string& to, Bytes wire);

  /// Symmetric one-way latency override for the {a, b} pair.
  void SetLinkLatency(const std::string& a, const std::string& b,
                      double one_way_ms);
  void set_default_one_way_ms(double ms) {
    audit::LockGuard lk(mu_);
    default_one_way_ms_ = ms;
  }
  double default_one_way_ms() const {
    audit::LockGuard lk(mu_);
    return default_one_way_ms_;
  }
  void set_bandwidth_mbps(double mbps) {
    audit::LockGuard lk(mu_);
    bandwidth_mbps_ = mbps;
  }

  /// Fault plan for the directed link from → to (overrides the default).
  void SetFaults(const std::string& from, const std::string& to,
                 FaultPlan plan);
  void SetDefaultFaults(FaultPlan plan) {
    audit::LockGuard lk(mu_);
    default_faults_ = plan;
  }
  void ClearFaults();

  /// One-way model latency for a pair including bandwidth for `bytes`.
  double OneWayMs(const std::string& a, const std::string& b,
                  size_t bytes) const;

  /// Closes every mailbox; idempotent.
  void Shutdown();

 private:
  double OneWayMsLocked(const std::string& a, const std::string& b,
                        size_t bytes) const REQUIRES(mu_);
  const FaultPlan& FaultsFor(const std::string& from,
                             const std::string& to) const REQUIRES(mu_);

  SimEnvironment* env_;
  /// Model one-way delay charged to each sent message ("net.delivery_ms").
  obs::Histogram* hist_delivery_ms_;

  mutable audit::Mutex mu_{"sim_network"};
  double default_one_way_ms_ GUARDED_BY(mu_) = 0.0;
  double bandwidth_mbps_ GUARDED_BY(mu_) = 100.0;
  FaultPlan default_faults_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Mailbox>> endpoints_
      GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, double> link_latency_
      GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, FaultPlan> faults_
      GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
};

}  // namespace msplog
