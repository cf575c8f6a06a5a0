// lint:hot-path
//
// Fixed-size worker pool (§2.1): an MSP serves its request queue with a
// thread pool; the same pool replays sessions in parallel after a crash
// (§4.3, "recover sessions in parallel").
//
// Hot-path shape: Submit pushes a move-only, small-buffer-optimized Task
// onto a lock-free MPSC ring (common/mpsc_queue.h) — no mutex, no heap
// allocation for the dispatcher's lambdas. A worker calls TryPop once; when
// the queue looks empty it registers in an eventcount (sleepers_ counter +
// condvar), polls once more under the mutex and parks. Producers pay a
// fence plus one relaxed load to detect sleepers, and take the mutex only
// to wake one.
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
// Known (accepted) semantic difference from the old mutex design: Submit
// and Shutdown are no longer atomic with respect to each other — a task
// pushed concurrently with Shutdown may be popped-and-run or may be left
// behind in the queue (it is destroyed, not run, when the pool dies). Every
// in-tree caller stops its producers (dispatch loop, timers) before
// shutting the pool down, so no task is lost in practice.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "audit/mutex.h"
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

 private:
  void WorkerLoop();

  MpscQueue<Task> queue_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> discard_{false};
  /// Eventcount: number of workers inside the sleep protocol. Producers
  /// only touch mu_/cv_ when this is nonzero.
  std::atomic<int> sleepers_{0};
  mutable audit::Mutex mu_{"thread_pool"};
  audit::CondVar cv_;
  /// Written only while spawning (constructor) and joining (Shutdown/Abort,
  /// serialized by stop_); sized concurrently by num_threads().
  std::vector<std::thread> workers_;
};

}  // namespace msplog
