// lint:hot-path
//
// Bounded lock-free multi-producer queue with an unbounded mutex-guarded
// overflow valve — the intake lane between SimNetwork delivery / request
// dispatch and the MSP worker pool.
//
// The fast path is the classic bounded MPMC ring (Vyukov): each cell
// carries a sequence stamp; producers CAS the enqueue cursor and publish
// with a release store of the stamp, consumers CAS the dequeue cursor and
// retire the cell by stamping it for the next lap. Push and Pop are
// wait-free against each other in the common case — no mutex, no
// allocation. Multiple consumers are supported (ThreadPool runs N workers),
// so this is strictly more general than its MPSC name suggests.
//
// When the ring is momentarily full, Push falls back to an audit::Mutex-
// guarded deque, which restores the old unbounded-queue guarantee (a
// producer never blocks on a full queue, and nothing is dropped). FIFO per
// producer is preserved across the spill: once a producer has spilled, its
// later pushes also spill until the overflow drains (it observes its own
// overflow_size_ writes), and consumers drain the ring — whose entries are
// always older than any coexisting overflow entry from the same producer —
// before touching the overflow.
//
// depth() is a relaxed atomic counter, so reading it never contends with
// the request path; ThreadPool's successor wakeup reads it.
//
// Sleeping when empty is the caller's concern: ThreadPool and Mailbox park
// on an EventCount (common/event_count.h). This type only provides the
// non-blocking operations plus the depth counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "audit/mutex.h"

namespace msplog {

template <typename T>
class MpscQueue {
 public:
  /// `capacity` is rounded up to a power of two; the ring is preallocated.
  explicit MpscQueue(size_t capacity = 1024, const char* name = "mpsc_queue")
      : overflow_mu_(name) {
    size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Lock-free unless the ring is full or an overflow spill is draining.
  /// Never fails, never blocks on a full queue.
  void Push(T v) {
    depth_.fetch_add(1, std::memory_order_relaxed);
    // A producer that spilled must keep spilling until the overflow drains,
    // or its ring entries would overtake its parked overflow entries.
    if (overflow_size_.load(std::memory_order_acquire) == 0 &&
        TryPushRing(std::move(v))) {
      return;
    }
    audit::LockGuard lk(overflow_mu_);
    overflow_.push_back(std::move(v));
    overflow_size_.store(overflow_.size(), std::memory_order_release);
  }

  /// Non-blocking pop; ring first (older), then the overflow spill.
  bool TryPop(T* out) {
    if (TryPopRing(out)) {
      depth_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (overflow_size_.load(std::memory_order_acquire) != 0) {
      audit::LockGuard lk(overflow_mu_);
      if (!overflow_.empty()) {
        *out = std::move(overflow_.front());
        overflow_.pop_front();
        overflow_size_.store(overflow_.size(), std::memory_order_release);
        depth_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Relaxed depth estimate: pushes not yet popped. Exact when quiescent.
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  bool empty() const { return depth() == 0; }

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  bool TryPushRing(T&& v) {
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell* cell = &cells_[pos & mask_];
      size_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell->value = std::move(v);
          cell->seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full lap: ring has no room
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryPopRing(T* out) {
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell* cell = &cells_[pos & mask_];
      size_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          *out = std::move(cell->value);
          cell->seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or the producer that claimed it hasn't published)
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
  alignas(64) std::atomic<size_t> depth_{0};
  std::atomic<size_t> overflow_size_{0};
  audit::Mutex overflow_mu_;
  std::deque<T> overflow_ GUARDED_BY(overflow_mu_);
};

}  // namespace msplog
