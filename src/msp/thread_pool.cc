// lint:hot-path
#include "msp/thread_pool.h"

namespace msplog {

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
  idle_.NotifyOne();
  return true;
}

void ThreadPool::Shutdown() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  idle_.NotifyAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Abort() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    discard_.store(true, std::memory_order_release);
  }
  idle_.NotifyAll();
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
      bool got = false;
      idle_.Park([&] {
        got = queue_.TryPop(&task);
        return got || stop_.load(std::memory_order_acquire);
      });
      if (!got) return;  // stopped, and the queue is drained
    }
    // Successor wakeup: Submit woke one worker per task, but that wakeup
    // may have been spent on a worker that found the head cell unpublished
    // and parked again. Pass one on while more tasks are queued.
    if (queue_.depth() > 0) idle_.NotifyOne();
    if (discard_.load(std::memory_order_relaxed)) {
      task = Task();
      continue;
    }
    task();
    task = Task();
  }
}

}  // namespace msplog
