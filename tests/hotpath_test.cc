// Stress tests for the request→log hot path rebuilt in the async-pipeline
// overhaul: MPSC intake (multi-producer FIFO, spill correctness, pool
// liveness), the EventCount that pool workers and mailbox receivers park
// on, concurrent arena appends racing flushes / reclamation / archiving,
// and FlushUpTo watermark wakeups under Crash/Stop/Abort.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event_count.h"
#include "common/mpsc_queue.h"
#include "common/task.h"
#include "log/log_file.h"
#include "log/log_record.h"
#include "log/log_scanner.h"
#include "msp/thread_pool.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {
namespace {

LogRecord MakeRecord(const std::string& session, uint64_t seqno,
                     size_t payload) {
  LogRecord r;
  r.type = LogRecordType::kRequestReceive;
  r.session_id = session;
  r.seqno = seqno;
  r.target = "m";
  r.payload = MakePayload(payload, static_cast<char>('a' + seqno % 23));
  return r;
}

// ---------------------------------------------------------------------------
// MPSC intake
// ---------------------------------------------------------------------------

// Multiple producers, one consumer, a ring small enough that the overflow
// valve engages: nothing is lost, and each producer's items arrive in the
// order it pushed them.
TEST(MpscQueueTest, MultiProducerFifoPerProducerNoLoss) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<std::pair<int, int>> q(/*capacity=*/64, "test.q");
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push({p, i});
      }
    });
  }
  std::vector<int> last_seen(kProducers, -1);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    std::pair<int, int> item;
    if (!q.TryPop(&item)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_LT(item.first, kProducers);
    // FIFO per producer: strictly increasing sequence from each.
    ASSERT_GT(item.second, last_seen[item.first])
        << "producer " << item.first << " reordered";
    last_seen[item.first] = item.second;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(q.empty());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer - 1);
  }
}

// Liveness: tasks submitted from many threads to an idle-then-busy pool all
// run exactly once, and no wakeup is lost: the re-poll rescues no worker.
TEST(ThreadPoolHotPathTest, ConcurrentSubmittersAllTasksRunExactlyOnce) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 5000;
  std::atomic<int> ran{0};
  uint64_t rescues = 0;
  {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &ran] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          ASSERT_TRUE(pool.Submit([&ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
          }));
          if (i % 1024 == 0) std::this_thread::yield();  // let the pool idle
        }
      });
    }
    for (auto& t : submitters) t.join();
    pool.Shutdown();  // drains the queue before joining workers
    rescues = pool.repoll_rescues();
  }
  EXPECT_EQ(ran.load(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(rescues, 0u) << "wakeups lost to the re-poll";
}

// Abort must terminate promptly, run no further tasks, and leave Submit
// returning false — even with producers still pushing.
TEST(ThreadPoolHotPathTest, AbortIsLiveAgainstConcurrentSubmitters) {
  std::atomic<bool> stop_submitting{false};
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  std::thread submitter([&] {
    while (!stop_submitting.load(std::memory_order_acquire)) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  while (ran.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  pool.Abort();  // must not hang despite the concurrent submitter
  stop_submitting.store(true, std::memory_order_release);
  submitter.join();
  EXPECT_FALSE(pool.Submit([] {}));
}

// Wake rule: a task submitted to an idle pool wakes one parked worker, not
// every one. Waiting for each task in turn then costs about two voluntary
// context switches per task (the submitter waits, the worker parks again);
// a broadcast to the eight parked workers cost about 9 on a 4-core host.
TEST(ThreadPoolHotPathTest, IdlePoolWakesOneWorkerPerTask) {
  constexpr int kTasks = 500;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  ThreadPool pool(8);  // declared last: joins its workers before mu/cv die
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all park
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  for (int i = 1; i <= kTasks; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      {
        std::lock_guard<std::mutex> lk(mu);
        ++done;
      }
      cv.notify_one();
    }));
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == i; });
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const double per_task =
      static_cast<double>(after.ru_nvcsw - before.ru_nvcsw) / kTasks;
  EXPECT_LT(per_task, 4.0) << "voluntary context switches per task";
}

// Concurrent producers each get a parked worker without waiting out the
// re-poll bound. Each round, N producers submit one task each at once to N
// parked workers, and every task blocks until all N run, so a task left
// queued for want of a wakeup waits for a worker's re-poll, which the pool
// counts as a rescue. The hazard is the ring's claimed-but-unpublished head
// cell: a producer's wakeup can land on a worker that sees the queue empty
// and parks again. Counting rescues instead of timing rounds keeps a
// preempted producer from reading as a stall.
TEST(ThreadPoolHotPathTest, ConcurrentProducersEachWakeAParkedWorker) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 6000;
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;   // tasks of this round that have started
  int finished = 0;  // tasks of this round that saw all N running
  std::atomic<int> round{0};
  ThreadPool pool(kProducers);
  auto task = [&] {
    std::unique_lock<std::mutex> lk(mu);
    ++running;
    cv.notify_all();
    cv.wait_for(lk, std::chrono::seconds(10),
                [&] { return running == kProducers; });
    ++finished;
    cv.notify_all();
  };
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int r = 1; r <= kRounds; ++r) {
        for (int seen = round.load(); seen < r; seen = round.load()) {
          round.wait(seen);
        }
        pool.Submit(task);
      }
    });
  }
  double slowest_ms = 0.0;
  for (int r = 1; r <= kRounds; ++r) {
    {
      std::lock_guard<std::mutex> lk(mu);
      running = 0;
      finished = 0;
    }
    const auto start = std::chrono::steady_clock::now();
    round.store(r);
    round.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return finished == kProducers; });
    slowest_ms = std::max(
        slowest_ms, std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(pool.repoll_rescues(), 0u) << "slowest round " << slowest_ms
                                       << " ms";
}

// The ring's blind spot, held open on a quiet host with no hook in the pool
// or the queue. Submit relocates a Task's inline capture three times: into
// the Task, into Push's by-value parameter, and into the ring cell, between
// the producer's claim of the cell and its publish. A capture whose move
// blocks on its third move holds producer P1 in that window. Task B is then
// published behind the held cell, and its wakeup is spent on a worker that
// finds the head cell unpublished and parks again. Released, P1 publishes
// task A and wakes one worker; A waits for B, so only the successor wakeup
// gets B a worker without waiting out the re-poll bound.
TEST(ThreadPoolHotPathTest, ProducerHeldBetweenClaimAndPublishLosesNoWakeup) {
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;     // P1 is between claim and publish
    bool release = false;  // P1 may publish
    bool b_ran = false;
    bool a_done = false;
  };
  struct HoldOnThirdMove {
    Gate* gate;
    int moves = 0;
    explicit HoldOnThirdMove(Gate* g) : gate(g) {}
    HoldOnThirdMove(HoldOnThirdMove&& o) noexcept
        : gate(o.gate), moves(o.moves + 1) {
      if (moves != 3) return;
      std::unique_lock<std::mutex> lk(gate->mu);
      gate->held = true;
      gate->cv.notify_all();
      gate->cv.wait(lk, [this] { return gate->release; });
    }
    void operator()() {  // task A
      std::unique_lock<std::mutex> lk(gate->mu);
      gate->cv.wait_for(lk, std::chrono::seconds(10),
                        [this] { return gate->b_ran; });
      gate->a_done = true;
      gate->cv.notify_all();
    }
  };
  Gate gate;
  ThreadPool pool(2);  // declared after gate: joins its workers first
  for (int round = 1; round <= 20; ++round) {
    {
      std::lock_guard<std::mutex> lk(gate.mu);
      gate.held = gate.release = gate.b_ran = gate.a_done = false;
    }
    std::thread p1([&] { pool.Submit(HoldOnThirdMove(&gate)); });
    bool held = false;
    {
      std::unique_lock<std::mutex> lk(gate.mu);
      held = gate.cv.wait_for(lk, std::chrono::seconds(20),
                              [&] { return gate.held; });
    }
    if (!held) {  // Task no longer relocates an inline capture three times
      p1.join();
      FAIL() << "no third move held the producer";
    }
    pool.Submit([&gate] {  // task B
      std::lock_guard<std::mutex> lk(gate.mu);
      gate.b_ran = true;
      gate.cv.notify_all();
    });
    // Time for B's wakeup to find the head cell unpublished. Only the
    // mutant's detection depends on it: the pool must rescue nothing
    // whatever the timing.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      std::lock_guard<std::mutex> lk(gate.mu);
      gate.release = true;
      gate.cv.notify_all();
    }
    p1.join();
    std::unique_lock<std::mutex> lk(gate.mu);
    ASSERT_TRUE(gate.cv.wait_for(lk, std::chrono::seconds(20),
                                 [&] { return gate.a_done; }))
        << "round " << round;
    ASSERT_TRUE(gate.b_ran) << "round " << round;
  }
  EXPECT_EQ(pool.repoll_rescues(), 0u) << "of 20 rounds";
}

// ---------------------------------------------------------------------------
// EventCount, and the Mailbox receiver that parks on one
// ---------------------------------------------------------------------------

// With nothing published, a Park waits out its bound, never more than the
// re-poll bound per wait, and rescues nothing.
TEST(EventCountTest, ParkWithNothingPublishedTimesOut) {
  EventCount ec("test.ec");
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ec.Park([] { return false; }, std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ec.Park([] { return false; }, std::chrono::seconds(10)));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, EventCount::kRepollBound);
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_EQ(ec.rescues(), 0u);
}

// NotifyAll wakes every parked waiter; one it missed would be rescued by
// the re-poll.
TEST(EventCountTest, NotifyAllWakesEveryParkedWaiter) {
  constexpr int kWaiters = 4;
  EventCount ec("test.ec");
  std::atomic<bool> flag{false};
  std::atomic<int> polled{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      bool first = true;
      ec.Park([&] {
        if (first) polled.fetch_add(1);
        first = false;
        return flag.load();
      });
    });
  }
  // A waiter's first poll runs under the mutex right before its wait, and
  // NotifyAll takes that mutex, so it finds every waiter parked.
  while (polled.load() < kWaiters) std::this_thread::yield();
  flag.store(true);
  ec.NotifyAll();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(ec.rescues(), 0u);
}

// Dekker stress: each round the producer publishes a flag and calls
// NotifyOne while the consumer parks on it. A lost wakeup leaves the round
// to the re-poll.
TEST(EventCountTest, NotifyOneRacingParkLosesNoWakeup) {
  constexpr int kRounds = 100'000;
  EventCount ec("test.ec");
  std::atomic<int> published{0};
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    for (int r = 1; r <= kRounds; ++r) {
      ec.Park([&] { return published.load(std::memory_order_acquire) >= r; });
      consumed.store(r, std::memory_order_release);
    }
  });
  for (int r = 1; r <= kRounds; ++r) {
    while (consumed.load(std::memory_order_acquire) < r - 1) {
      std::this_thread::yield();
    }
    published.store(r, std::memory_order_release);
    ec.NotifyOne();
  }
  consumer.join();
  EXPECT_EQ(ec.rescues(), 0u);
}

// Four producers Push one packet each per round to a receiver parked in
// Mailbox::Pop; a lost wakeup leaves a packet to the re-poll.
TEST(MailboxHotPathTest, ConcurrentPushesWakeTheParkedReceiver) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 2000;
  SimEnvironment env(0.0);
  Mailbox mb(&env);
  std::atomic<int> round{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&] {
      for (int r = 1; r <= kRounds; ++r) {
        for (int seen = round.load(); seen < r; seen = round.load()) {
          round.wait(seen);
        }
        mb.Push(Packet{"producer", "receiver", "x"}, /*due_real_ns=*/0);
      }
    });
  }
  int popped = 0;
  Packet p;
  for (int r = 1; r <= kRounds; ++r) {
    round.store(r);
    round.notify_all();
    for (int i = 0; i < kProducers; ++i) popped += mb.Pop(&p) ? 1 : 0;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(popped, kProducers * kRounds);
  EXPECT_EQ(mb.repoll_rescues(), 0u);
}

// ---------------------------------------------------------------------------
// Arena append vs concurrent flush / reclaim / archive
// ---------------------------------------------------------------------------

// Hammer Append from several threads while another thread flushes, reclaims,
// and archives the durable prefix. Afterwards: LSNs are disjoint and
// monotonic per appender, and every record above the reclaimed watermark
// reads back intact (arena, disk, or mid-write — wherever it lives).
TEST(LogHotPathTest, ConcurrentAppendsSurviveFlushReclaimArchiveRaces) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  disk.set_charge_latency(false);
  LogFileOptions opt;
  opt.max_buffer_bytes = 16 << 10;  // small arenas: seals + backpressure
  LogFile log(&env, &disk, "log", opt);

  constexpr int kAppenders = 4;
  constexpr int kPerAppender = 1500;
  struct Appended {
    uint64_t lsn;
    size_t framed;
    int tid;
    uint64_t seqno;
  };
  std::vector<std::vector<Appended>> appended(kAppenders);
  std::atomic<bool> appenders_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      appended[t].reserve(kPerAppender);
      for (int i = 0; i < kPerAppender; ++i) {
        LogRecord r = MakeRecord("se" + std::to_string(t), i, 64 + i % 200);
        size_t framed = 0;
        uint64_t lsn = log.Append(r, &framed);
        appended[t].push_back({lsn, framed, t, static_cast<uint64_t>(i)});
      }
    });
  }
  std::thread churn([&] {
    int round = 0;
    while (!appenders_done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(log.FlushAll().ok());
      const uint64_t durable = log.durable_lsn();
      // Alternate archive and plain reclaim over a slice of the durable
      // prefix, always keeping the most recent half intact.
      const uint64_t cut = durable / 2;
      if (round++ % 2 == 0) {
        log.ArchiveUpTo(cut);
      } else {
        log.ReclaimUpTo(cut);
      }
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  appenders_done.store(true, std::memory_order_release);
  churn.join();
  ASSERT_TRUE(log.FlushAll().ok());

  // LSN ranges are pairwise disjoint and per-appender monotonic.
  std::vector<Appended> all;
  for (const auto& v : appended) {
    for (size_t i = 1; i < v.size(); ++i) {
      ASSERT_LT(v[i - 1].lsn, v[i].lsn);
    }
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Appended& a, const Appended& b) { return a.lsn < b.lsn; });
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_LE(all[i - 1].lsn + all[i - 1].framed, all[i].lsn);
  }
  // Everything above the reclaimed watermark reads back intact.
  const uint64_t reclaimed = log.reclaimed_lsn();
  size_t verified = 0;
  for (const auto& a : all) {
    if (a.lsn < reclaimed) continue;
    LogRecord out;
    ASSERT_TRUE(log.ReadRecordAt(a.lsn, &out).ok()) << "lsn " << a.lsn;
    EXPECT_EQ(out.session_id, "se" + std::to_string(a.tid));
    EXPECT_EQ(out.seqno, a.seqno);
    ++verified;
  }
  EXPECT_GT(verified, 0u);
  // The archived prefix was preserved before punching.
  // Archive segments are disjoint, sorted, and confined to the archived
  // prefix (interleaved plain reclaims legally punch holes they skip).
  auto segments = LogFile::ListArchiveSegments(&disk, "log");
  const uint64_t archived_lsn = log.Extents().archived_lsn;
  uint64_t prev_end = 0;
  for (const auto& s : segments) {
    EXPECT_GE(s.base, prev_end);
    prev_end = s.base + s.bytes;
    EXPECT_LE(prev_end, archived_lsn);
  }
}

// ---------------------------------------------------------------------------
// FlushUpTo watermark wakeups under Crash / Stop
// ---------------------------------------------------------------------------

// Park many FlushUpTo waiters, then crash the log: every waiter must return
// promptly with OK (its write completed first) or Crashed — never hang.
TEST(LogHotPathTest, FlushWaitersResolveOnCrash) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  constexpr int kWaiters = 6;
  std::vector<uint64_t> lsns;
  for (int i = 0; i < kWaiters; ++i) {
    lsns.push_back(log.Append(MakeRecord("se", i, 256)));
  }
  std::atomic<int> resolved{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      Status st = log.FlushUpTo(lsns[i]);
      EXPECT_TRUE(st.ok() || st.IsCrashed()) << st.ToString();
      resolved.fetch_add(1, std::memory_order_relaxed);
    });
  }
  log.Crash();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(resolved.load(), kWaiters);
  // Post-crash flushes fail immediately instead of parking forever.
  uint64_t lsn = log.Append(MakeRecord("se", 99, 64));
  EXPECT_TRUE(log.FlushUpTo(lsn).IsCrashed());
}

// Stop (orderly writer shutdown) fails parked waiters with IOError.
TEST(LogHotPathTest, FlushWaitersResolveOnStop) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  constexpr int kWaiters = 4;
  std::vector<uint64_t> lsns;
  for (int i = 0; i < kWaiters; ++i) {
    lsns.push_back(log.Append(MakeRecord("se", i, 256)));
  }
  std::atomic<int> resolved{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      Status st = log.FlushUpTo(lsns[i]);
      EXPECT_TRUE(st.ok() || st.code() == StatusCode::kIOError)
          << st.ToString();
      resolved.fetch_add(1, std::memory_order_relaxed);
    });
  }
  log.Stop();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(resolved.load(), kWaiters);
}

// Batch-flush mode rides the same completion path: concurrent waiters on
// one batched write all resolve, and the data really is durable after.
TEST(LogHotPathTest, BatchFlushResolvesConcurrentWaiters) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFileOptions opt;
  opt.batch_flush = true;
  opt.batch_timeout_ms = 1.0;
  LogFile log(&env, &disk, "log", opt);
  constexpr int kWaiters = 5;
  std::vector<std::thread> waiters;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      uint64_t lsn = log.Append(MakeRecord("se" + std::to_string(i), i, 128));
      ASSERT_TRUE(log.FlushUpTo(lsn).ok());
      EXPECT_GT(log.durable_lsn(), lsn);
      ok_count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(ok_count.load(), kWaiters);
}

}  // namespace
}  // namespace msplog
