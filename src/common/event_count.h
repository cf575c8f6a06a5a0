// lint:hot-path
//
// EventCount — how ThreadPool's idle workers and each Mailbox's receiver
// sleep until a producer publishes to their lock-free queue.
//
// A consumer registers in the waiter count and re-polls under the mutex
// before it waits; a producer publishes, then notifies under the mutex only
// if the count shows a consumer (Dekker). Either side sees the other, and
// the mutex keeps the notify from landing between re-poll and wait. A
// condvar, as std::atomic::wait has no timed form and a Mailbox sleeps
// until a packet is due. No wait outlasts kRepollBound, so a lost wakeup
// costs latency, not liveness, and rescues() counts them for tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "audit/mutex.h"

namespace msplog {

/// True when TSan or ASan instruments this build: everything runs ~10-20x
/// slower, and TSan cannot model a standalone fence.
inline constexpr bool kSanitized =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

class EventCount {
 public:
  static constexpr std::chrono::milliseconds kRepollBound{50};
  static constexpr std::chrono::nanoseconds kForever =
      std::chrono::nanoseconds::max();

  /// `name` names the mutex in the lock-order graph.
  explicit EventCount(const char* name) : mu_(name) {}

  /// After publishing: wakes one parked consumer, if any is registered.
  void NotifyOne() {
    if (!HasWaiters()) return;
    audit::LockGuard lk(mu_);
    if (signals_ < waiters_.load(std::memory_order_relaxed)) ++signals_;
    cv_.notify_one();
  }

  /// Wakes every parked consumer (shutdown, close).
  void NotifyAll() {
    audit::LockGuard lk(mu_);
    signals_ = waiters_.load(std::memory_order_relaxed);
    cv_.notify_all();
  }

  /// Registers, then polls `ready()` under the mutex until it holds, waiting
  /// for a notify between polls, at most min(max_wait, kRepollBound) each.
  /// A finite max_wait allows one wait. Returns ready()'s verdict.
  template <typename Ready>
  bool Park(Ready ready, std::chrono::nanoseconds max_wait = kForever) {
    audit::UniqueLock lk(mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    bool got = ready();
    while (!got) {
      const bool capped = max_wait > kRepollBound;
      const bool timed_out =
          cv_.wait_for(lk, capped ? kRepollBound : max_wait) ==
          std::cv_status::timeout;
      // A notify leaves a signal, so a waiter it woke that runs only after
      // its deadline does not read as unannounced.
      const bool signaled = signals_ > 0;
      if (signaled) --signals_;
      got = ready();
      if (got && capped && timed_out && !signaled) {
        rescues_.fetch_add(1, std::memory_order_relaxed);
      }
      if (max_wait != kForever) break;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return got;
  }

  /// Waits that ran out on kRepollBound unnotified, then found work.
  uint64_t rescues() const { return rescues_.load(std::memory_order_relaxed); }

 private:
  /// The producer's half of the pairing. Sanitized builds read the count
  /// with a seq_cst read-modify-write, which TSan checks; release builds
  /// keep the fence, as the read-modify-write measured +6 % saturate CPU.
  bool HasWaiters() {
    if constexpr (kSanitized) {
      return waiters_.fetch_add(0, std::memory_order_seq_cst) > 0;
    } else {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      return waiters_.load(std::memory_order_relaxed) > 0;
    }
  }

  std::atomic<int> waiters_{0};
  std::atomic<uint64_t> rescues_{0};
  audit::Mutex mu_;
  audit::CondVar cv_;
  /// Notifies no woken waiter has taken yet; at most waiters_, which under
  /// mu_ counts exactly the waiters inside cv_.wait_for.
  int signals_ GUARDED_BY(mu_) = 0;
};

}  // namespace msplog
