#include "audit/mutex.h"
#include "sim/sim_network.h"

#include <algorithm>
#include <chrono>

namespace msplog {

namespace {
// Idle-consumer re-poll bound. The eventcount protocol (sleepers_ counter
// + Push's seq_cst fence) already rules out lost wakeups; the timed
// re-poll is liveness insurance on top.
constexpr uint64_t kMailboxRepollNs = 50'000'000;  // 50 ms
}  // namespace

bool Mailbox::Pop(Packet* out) { return PopWithin(out, -1); }

bool Mailbox::PopWithTimeout(Packet* out, int64_t timeout_real_ms) {
  return PopWithin(out, std::max<int64_t>(0, timeout_real_ms) * 1'000'000);
}

bool Mailbox::PopWithin(Packet* out, int64_t timeout_ns) {
  uint64_t deadline = kNever;  // fixed at the first clock read
  for (;;) {
    // Take in what senders queued. A packet due when sent goes straight
    // out unless earlier packets are pending: no heap, no clock read.
    Timed t;
    while (queue_.TryPop(&t)) {
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
    uint64_t now = 0;
    uint64_t wake = kNever;
    if (!pending_.empty() || timeout_ns >= 0) {
      now = env_->ElapsedRealNs();
      if (deadline == kNever && timeout_ns >= 0) {
        deadline = now + static_cast<uint64_t>(timeout_ns);
      }
      if (!pending_.empty()) {
        if (pending_.front().due_real_ns <= now) {
          std::pop_heap(pending_.begin(), pending_.end(), Later());
          *out = std::move(pending_.back().packet);
          pending_.pop_back();
          return true;
        }
        wake = pending_.front().due_real_ns;
      }
      if (now >= deadline) return false;
      wake = std::min(wake, deadline);
    }

    // Sleep until `wake` or until a sender queues a packet.
    audit::UniqueLock lk(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (queue_.TryPop(&t)) {
      Hold(std::move(t));
    } else if (!closed()) {
      uint64_t wait_ns = kMailboxRepollNs;
      if (wake != kNever) {
        SimEnvironment::UseFineTimerSlack();
        wait_ns = std::min(wait_ns, wake - now);
      }
      cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
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
  // Publish-then-check (Dekker): pairs with the consumer registering in
  // sleepers_ before its re-poll — either it sees our packet or we see it
  // sleeping and wake it, to take the packet in and sleep until it is due.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    audit::LockGuard lk(mu_);
    cv_.notify_all();
  }
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
  audit::LockGuard lk(mu_);
  cv_.notify_all();
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
