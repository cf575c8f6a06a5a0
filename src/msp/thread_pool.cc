// lint:hot-path
#include "msp/thread_pool.h"

#include <chrono>

namespace msplog {

namespace {
// Belt-and-braces bound on an idle worker's sleep. The eventcount protocol
// (sleepers_ + seq_cst fence) makes a lost wakeup impossible in theory; the
// timed re-poll makes liveness immune to the theory being wrong on some
// exotic platform, at the cost of one empty TryPop per idle worker per tick.
constexpr auto kIdleRepoll = std::chrono::milliseconds(50);
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(Task task) {
  if (stop_.load(std::memory_order_acquire)) return false;
  queue_.Push(std::move(task));
  // Publish-then-check (Dekker): the fence orders our push against the
  // sleeper count read; a worker that missed the item must have registered
  // in sleepers_ first, so we see it here and wake it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    audit::LockGuard lk(mu_);
    cv_.notify_one();
  }
  return true;
}

void ThreadPool::Shutdown() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  {
    audit::LockGuard lk(mu_);
    cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Abort() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    discard_.store(true, std::memory_order_release);
  }
  {
    audit::LockGuard lk(mu_);
    cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Free anything the workers left behind (they drop instead of run under
  // discard_, but a task pushed after the last worker exited would sit in
  // the ring until destruction otherwise).
  Task dropped;
  while (queue_.TryPop(&dropped)) dropped = Task();
}

void ThreadPool::WorkerLoop() {
  Task task;
  while (true) {
    if (!queue_.TryPop(&task)) {
      // Queue looked empty: enter the eventcount sleep protocol. The
      // seq_cst increment pairs with Submit's fence — after registering we
      // re-poll, so either we see the producer's item or the producer sees
      // our registration and notifies.
      audit::UniqueLock lk(mu_);
      // Stay registered in sleepers_ for the whole idle period — including
      // across the timed wait — so a producer arriving at any point sees a
      // nonzero count and posts the notify.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      for (;;) {
        if (queue_.TryPop(&task)) break;
        if (stop_.load(std::memory_order_acquire)) {
          sleepers_.fetch_sub(1, std::memory_order_relaxed);
          return;
        }
        cv_.wait_for(lk, kIdleRepoll);
      }
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Successor wakeup: Submit woke one worker per task, but that wakeup
    // may have been spent on a worker that found the head cell unpublished
    // and parked again. Pass one on while more tasks are queued.
    if (queue_.depth() > 0 && sleepers_.load(std::memory_order_relaxed) > 0) {
      audit::LockGuard lk(mu_);
      cv_.notify_one();
    }
    if (discard_.load(std::memory_order_relaxed)) {
      task = Task();
      continue;
    }
    task();
    task = Task();
  }
}

}  // namespace msplog
