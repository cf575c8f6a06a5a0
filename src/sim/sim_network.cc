#include "sim/sim_network.h"

#include <algorithm>
#include <chrono>

namespace msplog {

bool Mailbox::PopUntil(Packet* out, uint64_t deadline_real_ns) {
  Timed t;
  bool parked_pop = false;  // the last Park took `t` in
  for (;;) {
    // Take in what senders queued. A packet due when sent goes straight
    // out unless earlier packets are pending: no heap, no clock read.
    while (parked_pop || queue_.TryPop(&t)) {
      parked_pop = false;
      if (t.due_real_ns == 0 && pending_.empty()) {
        *out = std::move(t.packet);
        return true;
      }
      Hold(std::move(t));
    }
    if (closed()) {
      pending_.clear();  // dead host: packets in flight are lost
      return false;
    }
    // Park until a packet arrives, one is due or the deadline passes.
    auto max_wait = EventCount::kForever;
    if (!pending_.empty() || deadline_real_ns != kNever) {
      const uint64_t now = env_->ElapsedRealNs();
      uint64_t wake = deadline_real_ns;
      if (!pending_.empty()) {
        if (pending_.front().due_real_ns <= now) {
          std::pop_heap(pending_.begin(), pending_.end(), Later());
          *out = std::move(pending_.back().packet);
          pending_.pop_back();
          return true;
        }
        wake = std::min(wake, pending_.front().due_real_ns);
      }
      if (now >= deadline_real_ns) return false;
      SimEnvironment::UseFineTimerSlack();
      max_wait = std::chrono::nanoseconds(wake - now);
    }
    idle_.Park(
        [&] {
          parked_pop = queue_.TryPop(&t);
          return parked_pop || closed();
        },
        max_wait);
  }
}

void Mailbox::Hold(Timed t) {
  t.seq = next_seq_++;
  pending_.push_back(std::move(t));
  std::push_heap(pending_.begin(), pending_.end(), Later());
}

void Mailbox::Push(Packet p, uint64_t due_real_ns) {
  if (closed()) return;  // dead host: drop
  queue_.Push(Timed{due_real_ns, 0, std::move(p)});
  idle_.NotifyOne();
}

void Mailbox::Close() {
  closed_.store(true, std::memory_order_release);
  // Drop queued packets, matching the dead-host model. A Push racing with
  // Close may leave one packet behind; the consumer either drains it (one
  // extra delivered packet, indistinguishable from delivery-before-crash)
  // or never pops again and it dies with the mailbox. The consumer drops
  // the packets it holds in its heap when it sees the mailbox closed.
  Timed dropped;
  while (queue_.TryPop(&dropped)) {
  }
  idle_.NotifyAll();
}

SimNetwork::SimNetwork(SimEnvironment* env, uint64_t seed)
    : env_(env), rng_(seed) {
  hist_delivery_ms_ = env_->metrics().GetHistogram("net.delivery_ms");
}

SimNetwork::~SimNetwork() { Shutdown(); }

void SimNetwork::Shutdown() {
  audit::LockGuard lk(mu_);
  for (auto& [name, mb] : endpoints_) mb->Close();
}

std::shared_ptr<Mailbox> SimNetwork::Register(const std::string& name) {
  audit::LockGuard lk(mu_);
  auto mb = std::make_shared<Mailbox>(env_);
  endpoints_[name] = mb;
  return mb;
}

void SimNetwork::Unregister(const std::string& name) {
  audit::LockGuard lk(mu_);
  auto it = endpoints_.find(name);
  if (it != endpoints_.end()) {
    it->second->Close();
    endpoints_.erase(it);
  }
}

const FaultPlan& SimNetwork::FaultsFor(const std::string& from,
                                       const std::string& to) const {
  mu_.AssertHeld();
  auto it = faults_.find({from, to});
  return it == faults_.end() ? default_faults_ : it->second;
}

double SimNetwork::OneWayMs(const std::string& a, const std::string& b,
                            size_t bytes) const {
  audit::LockGuard lk(mu_);
  return OneWayMsLocked(a, b, bytes);
}

double SimNetwork::OneWayMsLocked(const std::string& a, const std::string& b,
                                  size_t bytes) const {
  mu_.AssertHeld();
  double latency = default_one_way_ms_;
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = link_latency_.find(key);
  if (it != link_latency_.end()) latency = it->second;
  if (bandwidth_mbps_ > 0) {
    latency += static_cast<double>(bytes) * 8.0 / (bandwidth_mbps_ * 1000.0);
  }
  return latency;
}

void SimNetwork::SetLinkLatency(const std::string& a, const std::string& b,
                                double one_way_ms) {
  audit::LockGuard lk(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  link_latency_[key] = one_way_ms;
}

void SimNetwork::SetFaults(const std::string& from, const std::string& to,
                           FaultPlan plan) {
  audit::LockGuard lk(mu_);
  faults_[{from, to}] = plan;
}

void SimNetwork::ClearFaults() {
  audit::LockGuard lk(mu_);
  faults_.clear();
  default_faults_ = FaultPlan();
}

void SimNetwork::Send(const std::string& from, const std::string& to,
                      Bytes wire) {
  env_->stats().messages_sent.fetch_add(1);
  env_->stats().message_bytes.fetch_add(wire.size());

  double delay_ms = 0;
  int copies = 1;
  std::shared_ptr<Mailbox> mb;
  {
    audit::LockGuard lk(mu_);
    delay_ms = OneWayMsLocked(from, to, wire.size());
    const FaultPlan& plan = FaultsFor(from, to);
    if (plan.drop_prob > 0 && rng_.Chance(plan.drop_prob)) {
      env_->stats().messages_dropped.fetch_add(1);
      return;
    }
    if (plan.duplicate_prob > 0 && rng_.Chance(plan.duplicate_prob)) {
      copies = 2;
    }
    if (plan.reorder_jitter_ms > 0) {
      delay_ms += rng_.NextDouble() * plan.reorder_jitter_ms;
    }
    auto it = endpoints_.find(to);
    if (it != endpoints_.end()) mb = it->second;
  }
  hist_delivery_ms_->Record(delay_ms);
  if (!mb) return;  // dead host: packet lost

  // Arrival time on the receiver's clock; 0 means due now.
  const double scale = env_->time_scale();
  const uint64_t due =
      scale <= 0.0 || delay_ms <= 0.0
          ? 0
          : env_->ElapsedRealNs() +
                static_cast<uint64_t>(delay_ms * scale * 1e6);
  if (copies == 2) mb->Push(Packet{from, to, wire}, due);
  mb->Push(Packet{from, to, std::move(wire)}, due);
}

}  // namespace msplog
