// Micro-benchmarks (google-benchmark) for the hot primitives of the
// recovery infrastructure: log-record encoding, framed appends, dependency-
// vector merges and orphan checks, CRC32C, and log scanning. These quantify
// TDV and the CPU side of the logging overhead discussed in §5.2.
//
// Two modes:
//   (default)  google-benchmark suite, full statistical output.
//   --json     quick hand-timed pass over the three hot-path primitives
//              (append / encode / enqueue) emitting one BENCH_JSON
//              "micro_ops" blob for the perf-regression oracle
//              (scripts/compare_bench.py vs bench/baselines/micro_ops.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "common/crc32c.h"
#include "common/mpsc_queue.h"
#include "common/serde.h"
#include "common/task.h"
#include "log/log_file.h"
#include "log/log_record.h"
#include "log/log_scanner.h"
#include "recovery/dependency_vector.h"
#include "recovery/recovered_state_table.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"

namespace msplog {
namespace {

LogRecord SampleRecord(size_t payload, int dv_entries) {
  LogRecord r;
  r.type = LogRecordType::kRequestReceive;
  r.session_id = "client7/se42";
  r.seqno = 123456;
  r.target = "ServiceMethod1";
  r.payload = MakePayload(payload, 1);
  if (dv_entries > 0) {
    r.has_dv = true;
    for (int i = 0; i < dv_entries; ++i) {
      r.dv.Set("msp" + std::to_string(i), {1, 1000000ull + i});
    }
  }
  return r;
}

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord r = SampleRecord(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Encode());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogRecordEncode)->Arg(100)->Arg(1024)->Arg(8192);

void BM_LogRecordDecode(benchmark::State& state) {
  Bytes encoded = SampleRecord(state.range(0), 2).Encode();
  LogRecord out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogRecord::Decode(encoded, &out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogRecordDecode)->Arg(100)->Arg(1024)->Arg(8192);

void BM_LogAppend(benchmark::State& state) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  LogFile log(&env, &disk, "log");
  LogRecord r = SampleRecord(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(r));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogAppend)->Arg(100)->Arg(1024);

// Zero-copy encode: size-precomputed EncodeTo into a caller span, the path
// Append uses to write straight into the log arena.
void BM_LogRecordEncodeTo(benchmark::State& state) {
  LogRecord r = SampleRecord(state.range(0), 2);
  Bytes buf(r.EncodedSize(), '\0');
  for (auto _ : state) {
    BinaryWriter w(buf.data(), buf.size());
    r.EncodeTo(&w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogRecordEncodeTo)->Arg(100)->Arg(1024)->Arg(8192);

// Append with the batch-DV piggyback: consecutive records share one
// pre-encoded DV, so the per-append cost drops to frame + body copy.
void BM_LogAppendDvCached(benchmark::State& state) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  disk.set_charge_latency(false);
  LogFile log(&env, &disk, "log");
  LogRecord r = SampleRecord(state.range(0), 2);
  Bytes dv_wire;
  {
    BinaryWriter w(&dv_wire);
    r.dv.EncodeTo(&w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(r, nullptr, &dv_wire));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogAppendDvCached)->Arg(100)->Arg(1024);

// Hot-path intake primitive: one MPSC enqueue + dequeue of the pool's
// small-buffer task type (no allocation for lambdas under the SBO bound).
void BM_MpscTaskQueue(benchmark::State& state) {
  MpscQueue<Task> q(1024, "bench.q");
  uint64_t sink = 0;
  for (auto _ : state) {
    q.Push(Task([&sink] { ++sink; }));
    Task t;
    if (q.TryPop(&t)) t();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MpscTaskQueue);

void BM_DvMerge(benchmark::State& state) {
  DependencyVector a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.Set("msp" + std::to_string(i), {1, 100ull + i});
    b.Set("msp" + std::to_string(i), {1, 200ull + i});
  }
  for (auto _ : state) {
    DependencyVector c = a;
    c.Merge(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_DvMerge)->Arg(2)->Arg(8)->Arg(32);

void BM_OrphanCheck(benchmark::State& state) {
  RecoveredStateTable table;
  DependencyVector dv;
  for (int i = 0; i < state.range(0); ++i) {
    table.Record("msp" + std::to_string(i), 1, 1000);
    dv.Set("msp" + std::to_string(i), {1, 900ull});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.IsOrphanDv(dv));
  }
}
BENCHMARK(BM_OrphanCheck)->Arg(2)->Arg(8)->Arg(32);

void BM_Crc32c(benchmark::State& state) {
  Bytes data = MakePayload(state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Compute(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LogScan(benchmark::State& state) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "d");
  disk.set_charge_latency(false);
  LogFile log(&env, &disk, "log");
  for (int i = 0; i < state.range(0); ++i) {
    log.Append(SampleRecord(256, 2));
  }
  log.FlushAll();
  uint64_t size = disk.FileSize("log");
  for (auto _ : state) {
    LogScanner scanner(&disk, "log", 0, size);
    LogRecord r;
    int n = 0;
    while (scanner.Next(&r).ok()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogScan)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// --json quick mode: hand-timed loops over the three hot-path primitives,
// one BENCH_JSON blob for the perf-regression oracle. Wall-clock timing on
// purpose — these are CPU micro-costs, the sim clock plays no part.
// ---------------------------------------------------------------------------

double NsPerOp(const std::chrono::steady_clock::time_point& t0,
               const std::chrono::steady_clock::time_point& t1, uint64_t ops) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count() /
         static_cast<double>(ops);
}

void RunQuickJson() {
  using Clock = std::chrono::steady_clock;
  constexpr int kPayloadBytes = 100;
  constexpr uint64_t kOps = 200000;
  LogRecord rec = SampleRecord(kPayloadBytes, 2);

  // encode (allocating Encode(), the pre-overhaul hot path)
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    Bytes b = rec.Encode();
    benchmark::DoNotOptimize(b);
  }
  auto t1 = Clock::now();
  const double encode_ns = NsPerOp(t0, t1, kOps);

  // encode_to (size-precomputed zero-copy span encode)
  Bytes span(rec.EncodedSize(), '\0');
  t0 = Clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    BinaryWriter w(span.data(), span.size());
    rec.EncodeTo(&w);
    benchmark::DoNotOptimize(w.size());
  }
  t1 = Clock::now();
  const double encode_to_ns = NsPerOp(t0, t1, kOps);

  // append (sustained pipeline: reserve → encode-into-arena → lock-free
  // commit, with the log-writer draining concurrently — the steady-state
  // appends/sec number). The warmup pass sizes, faults, and recycles the
  // arenas so the timed window measures the hot path, not first-touch cost.
  double append_ns = 0;
  {
    SimEnvironment env(0.0);
    SimDisk disk(&env, "d");
    disk.set_charge_latency(false);
    LogFile log(&env, &disk, "log");
    Bytes dv_wire;
    {
      BinaryWriter w(&dv_wire);
      rec.dv.EncodeTo(&w);
    }
    for (uint64_t i = 0; i < kOps / 4; ++i) {
      log.Append(rec, nullptr, &dv_wire);
    }
    log.FlushAll();
    t0 = Clock::now();
    for (uint64_t i = 0; i < kOps; ++i) {
      benchmark::DoNotOptimize(log.Append(rec, nullptr, &dv_wire));
    }
    t1 = Clock::now();
    append_ns = NsPerOp(t0, t1, kOps);
    log.FlushAll();
  }

  // append_cold (one big never-drained buffer from a cold start: includes
  // arena growth copies and first-touch page faults — the worst-case burst)
  double append_cold_ns = 0;
  {
    SimEnvironment env(0.0);
    SimDisk disk(&env, "d2");
    disk.set_charge_latency(false);
    LogFileOptions lopt;
    lopt.max_buffer_bytes = 256 << 20;
    LogFile log(&env, &disk, "log", lopt);
    Bytes dv_wire;
    {
      BinaryWriter w(&dv_wire);
      rec.dv.EncodeTo(&w);
    }
    t0 = Clock::now();
    for (uint64_t i = 0; i < kOps; ++i) {
      benchmark::DoNotOptimize(log.Append(rec, nullptr, &dv_wire));
    }
    t1 = Clock::now();
    append_cold_ns = NsPerOp(t0, t1, kOps);
    log.FlushAll();
  }

  // enqueue (MPSC push + pop of an SBO task, the intake hot path)
  double enqueue_ns = 0;
  {
    MpscQueue<Task> q(1024, "bench.q");
    uint64_t sink = 0;
    t0 = Clock::now();
    for (uint64_t i = 0; i < kOps; ++i) {
      q.Push(Task([&sink] { ++sink; }));
      Task t;
      if (q.TryPop(&t)) t();
    }
    t1 = Clock::now();
    enqueue_ns = NsPerOp(t0, t1, kOps);
    benchmark::DoNotOptimize(sink);
  }

  obs::Json j;
  j.Add("payload_bytes", kPayloadBytes);
  j.Add("ops", kOps);
  j.Add("append_ns", append_ns);
  j.Add("appends_per_sec", append_ns > 0 ? 1e9 / append_ns : 0.0);
  j.Add("append_cold_ns", append_cold_ns);
  j.Add("encode_ns", encode_ns);
  j.Add("encode_to_ns", encode_to_ns);
  j.Add("enqueue_ns", enqueue_ns);
  bench::EmitJson("micro_ops", j);
}

}  // namespace
}  // namespace msplog

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      msplog::RunQuickJson();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
