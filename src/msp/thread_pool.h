// lint:hot-path
//
// Fixed-size worker pool (§2.1): an MSP serves its request queue with a
// thread pool; the same pool replays sessions in parallel after a crash
// (§4.3, "recover sessions in parallel").
//
// Hot-path shape: Submit pushes a move-only, small-buffer-optimized Task
// onto a lock-free MPSC ring (common/mpsc_queue.h) — no mutex, no heap
// allocation for the dispatcher's lambdas. Idle workers park on an
// EventCount (common/event_count.h).
//
// Wake rule: one wakeup per task, plus a successor wakeup. Submit notifies
// one parked worker, not all of them. A worker that takes a task while the
// queue still counts more (depth() includes a cell claimed but not yet
// published) notifies one more before running its task. That covers the
// ring's one blind spot: TryPop reports empty while the head cell is
// claimed but unpublished, so a later producer's wakeup can land on a
// worker that parks again; the worker that later takes the head task passes
// the wakeup on. Shutdown and Abort still wake every worker.
//
// Submit and Shutdown are not atomic with respect to each other: a task
// pushed concurrently with Shutdown may be popped-and-run or may be left
// behind in the queue (it is destroyed, not run, when the pool dies). So
// callers stop their producers (dispatch loop, timers) before shutting the
// pool down, as every in-tree caller does.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "common/event_count.h"
#include "common/mpsc_queue.h"
#include "common/task.h"

namespace msplog {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Returns false if the pool is shutting down.
  /// Allocation-free for callables that fit Task's inline storage.
  bool Submit(Task task);

  /// Stop accepting tasks, run what is queued, join all workers.
  void Shutdown();

  /// Stop accepting tasks, DISCARD the queue, join workers once in-flight
  /// tasks return (crash path — tasks observe the crash via Status and
  /// unwind quickly).
  void Abort();

  size_t num_threads() const { return workers_.size(); }

  /// Idle waits that a lost wakeup left to the re-poll bound (EventCount).
  uint64_t repoll_rescues() const { return idle_.rescues(); }

 private:
  void WorkerLoop();

  MpscQueue<Task> queue_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> discard_{false};
  EventCount idle_{"thread_pool"};
  /// Written only while spawning (constructor) and joining (Shutdown/Abort,
  /// serialized by stop_); sized concurrently by num_threads().
  std::vector<std::thread> workers_;
};

}  // namespace msplog
