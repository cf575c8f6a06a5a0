// Layer probes: replay a workload's observed operation mix through the
// public functions of single layers, at time_scale 0 so only software cost
// is timed, and turn per-operation cost x per-request count into a ledger
// that can be held against the workload's CPU per request.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"
#include "common/bytes.h"
#include "log/log_file.h"
#include "log/log_scanner.h"
#include "msp/thread_pool.h"
#include "rpc/message.h"
#include "sim/sim_disk.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace perfbench {

using namespace msplog;

namespace {

struct LogCost {
  double append_ns = 0;
  double flush_ns = 0;
};

/// LogFile::Append of the workload's record sizes, one FlushUpTo per
/// `records_per_flush` appends (the request boundary's flush).
LogCost ProbeLog(const ProbeMix& mix) {
  SimEnvironment env(0.0);
  SimDisk disk(&env, "probe", DiskGeometry(), 1);
  disk.set_charge_latency(false);
  LogFile log(&env, &disk, "probe.log");
  std::vector<LogRecord> records;
  for (double bytes : mix.record_bytes) {
    LogRecord r;
    r.type = LogRecordType::kSharedWrite;
    r.session_id = "probe/se1";
    r.var_id = "SV0";
    // The frame, type, ids and varints take about 40 bytes of the size.
    r.payload = MakePayload(static_cast<size_t>(std::max(1.0, bytes - 40)),
                            records.size());
    records.push_back(std::move(r));
  }
  if (records.empty()) records.resize(1);
  const double per_flush = std::max(1.0, mix.records_per_req /
                                             std::max(1.0, mix.flush_waits_per_req));
  const uint64_t budget_bytes = 8u << 20;  // keeps the in-memory disk small
  uint64_t appended = 0, appends = 0, flushes = 0, append_ns = 0,
           flush_ns = 0;
  double owed = 0;
  size_t next = 0;
  while (appended < budget_bytes) {
    owed += per_flush;
    uint64_t lsn = 0;
    for (; owed >= 1; owed -= 1) {
      const LogRecord& r = records[next++ % records.size()];
      size_t framed = 0;
      const uint64_t t0 = WallNs();
      lsn = log.Append(r, &framed);
      append_ns += WallNs() - t0;
      appended += framed;
      ++appends;
    }
    const uint64_t t0 = WallNs();
    (void)log.FlushUpTo(lsn);
    flush_ns += WallNs() - t0;
    ++flushes;
  }
  log.Stop();
  return {static_cast<double>(append_ns) / static_cast<double>(appends),
          static_cast<double>(flush_ns) / static_cast<double>(flushes)};
}

Message ProbeMessage(const ProbeMix& mix) {
  Message m;
  m.type = MessageType::kRequest;
  m.sender = "msp1";
  m.session_id = "cl000000-0/se1";
  m.seqno = 12345;
  m.method = "ServiceMethod2";
  const size_t entries =
      static_cast<size_t>(std::lround(mix.dv_entries_per_msg));
  const size_t fixed = m.EncodedSize();
  m.payload = MakePayload(
      static_cast<size_t>(std::max(1.0, mix.bytes_per_msg -
                                            static_cast<double>(fixed))),
      3);
  if (entries > 0) {
    m.has_dv = true;
    for (size_t i = 0; i < entries; ++i) {
      m.dv.Set("msp" + std::to_string(i + 1), StateId{3, 1000000 + i});
    }
  }
  m.trace_id = 77;
  m.parent_span_id = 78;
  return m;
}

/// Message::AppendTo and Message::Decode of a workload-shaped message.
std::pair<double, double> ProbeCodec(const ProbeMix& mix) {
  const Message m = ProbeMessage(mix);
  constexpr int kIters = 100000;
  Bytes wire;
  uint64_t enc_ns = 0, dec_ns = 0, sink = 0;
  for (int i = 0; i < kIters; ++i) {
    wire.clear();
    const uint64_t t0 = WallNs();
    m.AppendTo(&wire);
    const uint64_t t1 = WallNs();
    Message out;
    Status st = Message::Decode(wire, &out);
    dec_ns += WallNs() - t1;
    enc_ns += t1 - t0;
    sink += st.ok() ? out.seqno : 0;
  }
  if (sink != 12345ull * kIters) return {0, 0};
  return {static_cast<double>(enc_ns) / kIters,
          static_cast<double>(dec_ns) / kIters};
}

/// SimNetwork::Send -> Mailbox::Pop ping-pong between two threads: one hop
/// is a send, the receiver's wake-up and its pop.
double ProbeNetHop(const ProbeMix& mix) {
  SimEnvironment env(0.0);
  SimNetwork net(&env);
  auto a = net.Register("probe_a");
  auto b = net.Register("probe_b");
  constexpr int kRounds = 20000;
  const Bytes wire = MakePayload(
      static_cast<size_t>(std::max(1.0, mix.bytes_per_msg)), 5);
  std::thread echo([&] {
    Packet p;
    for (int i = 0; i < kRounds && b->Pop(&p); ++i) {
      net.Send("probe_b", "probe_a", std::move(p.wire));
    }
  });
  const uint64_t t0 = WallNs();
  Packet p;
  int done = 0;
  for (; done < kRounds; ++done) {
    net.Send("probe_a", "probe_b", wire);
    if (!a->Pop(&p)) break;
  }
  const uint64_t t1 = WallNs();
  echo.join();
  net.Shutdown();
  return done ? static_cast<double>(t1 - t0) / (2.0 * done) : 0;
}

/// ThreadPool::Submit until the task has run on a pool worker.
double ProbePool() {
  ThreadPool pool(8);
  constexpr int kTasks = 20000;
  std::atomic<int> ran{0};
  const uint64_t t0 = WallNs();
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_release); });
    while (ran.load(std::memory_order_acquire) <= i) std::this_thread::yield();
  }
  const uint64_t t1 = WallNs();
  pool.Shutdown();
  return static_cast<double>(t1 - t0) / kTasks;
}

/// LogScanner::Next over the workload's MSP1 log image.
double ProbeScan(const ProbeMix& mix) {
  if (mix.log_image.empty()) return 0;
  SimEnvironment env(0.0);
  SimDisk disk(&env, "probe", DiskGeometry(), 1);
  disk.set_charge_latency(false);
  if (!disk.WriteAt("image.log", 0, mix.log_image).ok()) return 0;
  uint64_t records = 0, ns = 0;
  while (ns < 50'000'000 || records == 0) {
    LogScanner scan(&disk, "image.log", 0, mix.log_image.size());
    LogRecord rec;
    uint64_t n = 0;
    const uint64_t t0 = WallNs();
    while (scan.Next(&rec).ok()) ++n;
    ns += WallNs() - t0;
    if (n == 0) return 0;
    records += n;
  }
  return static_cast<double>(ns) / static_cast<double>(records);
}

}  // namespace

void RunLayerProbes(const ProbeMix& mix, double cpu_us_per_req, Metrics* out) {
  const LogCost log = ProbeLog(mix);
  const auto [enc_ns, dec_ns] = ProbeCodec(mix);
  const double hop_ns = ProbeNetHop(mix);
  const double pool_ns = ProbePool();
  const double scan_ns = ProbeScan(mix);
  out->Set("probe.log_append_ns", log.append_ns, "ns");
  out->Set("probe.log_flush_up_to_ns", log.flush_ns, "ns");
  out->Set("probe.msg_encode_ns", enc_ns, "ns");
  out->Set("probe.msg_decode_ns", dec_ns, "ns");
  out->Set("probe.net_hop_ns", hop_ns, "ns");
  out->Set("probe.pool_submit_run_ns", pool_ns, "ns");
  out->Set("probe.scan_next_ns", scan_ns, "ns");

  const double log_us = (log.append_ns * mix.records_per_req +
                         log.flush_ns * mix.flush_waits_per_req) / 1000.0;
  const double codec_us = (enc_ns + dec_ns) * mix.msgs_per_req / 1000.0;
  const double net_us = hop_ns * mix.msgs_per_req / 1000.0;
  const double pool_us = pool_ns * mix.pool_tasks_per_req / 1000.0;
  out->Set("ledger.log_us_per_req", log_us, "us");
  out->Set("ledger.codec_us_per_req", codec_us, "us");
  out->Set("ledger.net_us_per_req", net_us, "us");
  out->Set("ledger.pool_us_per_req", pool_us, "us");
  out->Set("ledger.scan_us_per_cycle",
           scan_ns * mix.records_scanned_per_cycle / 1000.0, "us");
  out->Set("ledger.share_of_cpu",
           cpu_us_per_req > 0
               ? (log_us + codec_us + net_us + pool_us) / cpu_us_per_req
               : 0,
           "ratio");
}

}  // namespace perfbench
