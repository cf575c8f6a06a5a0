#!/usr/bin/env python3
"""Validate the BENCH_JSON machine-readable output of a bench binary.

Usage:  check_bench_json.py <bench-binary> [args...]

Runs the binary, scrapes every line of the form

    BENCH_JSON {...}

and checks that each blob parses as JSON and carries the expected schema:
a "bench" name, response-time quantiles (p50 <= p90 <= p99 <= max), and
histogram breakdown objects with consistent count/quantile fields.
Recovery-side benches (RECOVERY_BENCHES) are checked against the outage
observatory schema instead: an outage_report with known per-session fates,
non-negative time-to-servable, and monotonic MTTR quantiles.
Registered in CTest against `bench_fig14_response_time --quick`,
`bench_flush_coalescing --quick`, `bench_recovery_time --quick` and
`bench_micro_ops --json`.
"""
import json
import subprocess
import sys

REQUIRED_TOP = ["bench", "requests", "avg_ms", "p50_ms", "p90_ms", "p99_ms"]
REQUIRED_HIST = ["count", "mean", "p50", "p90", "p99", "min", "max"]
HIST_KEYS = ["response", "queue_wait", "execute", "flush_wait"]

# Recovery-side benches emit recovery metrics plus an outage_report section
# instead of the response-time schema above.
RECOVERY_BENCHES = {"recovery_time", "fig15b_crash_rate"}

# CPU micro-benches (bench_micro_ops --json) emit per-op nanosecond costs of
# the hot-path primitives instead of model-time response quantiles.
MICRO_BENCHES = {"micro_ops"}
REQUIRED_MICRO = [
    "payload_bytes", "ops", "append_ns", "appends_per_sec", "append_cold_ns",
    "encode_ns", "encode_to_ns", "enqueue_ns",
]
OUTAGE_FATES = {"replayed", "orphaned", "never-logged", "pending"}
REQUIRED_OUTAGE = [
    "valid", "complete", "generation", "epoch", "crash_model_ms",
    "recovery_start_ms", "sessions", "mttr",
]
REQUIRED_MTTR = ["count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"]

# Benches that must also carry per-session telemetry and a p99 blame
# breakdown (the observability sections, validated structurally below).
TELEMETRY_BENCHES = {"fig14_response_time", "flush_coalescing"}
REQUIRED_SESSION = [
    "session", "requests", "nested_calls", "max_request_fanout",
    "cross_domain_calls", "flush_stalls", "flush_stall_ms", "log_records",
    "log_bytes", "forced_flushes", "piggybacked_sends", "checkpoints",
    "replays", "dv_entries", "calls_by_peer",
]
REQUIRED_BLAME = [
    "threshold_ms", "traces_total", "traces_slow", "traces_incomplete",
    "total_ms", "buckets", "shares",
]
BLAME_BUCKETS = [
    "queue_wait_ms", "exec_ms", "local_flush_ms", "remote_flush_ms",
    "net_resend_ms", "other_ms",
]


def fail(msg):
    print("check_bench_json: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def check_hist(name, h):
    if not isinstance(h, dict):
        fail("%s is not an object: %r" % (name, h))
    for k in REQUIRED_HIST:
        if k not in h:
            fail("%s missing field %r (has %s)" % (name, k, sorted(h)))
    if h["count"] < 0:
        fail("%s negative count" % name)
    if h["count"] > 0:
        if not (h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]):
            fail("%s quantiles not monotonic: %r" % (name, h))


def check_telemetry(bench, tel):
    if not isinstance(tel, list):
        fail("%s session_telemetry is not a list: %r" % (bench, tel))
    if not tel:
        fail("%s session_telemetry is empty — the MSP hot paths did not "
             "record any per-session stats" % bench)
    total_requests = 0
    for s in tel:
        if not isinstance(s, dict):
            fail("%s session_telemetry entry not an object: %r" % (bench, s))
        for k in REQUIRED_SESSION:
            if k not in s:
                fail("%s session %r missing field %r (has %s)"
                     % (bench, s.get("session"), k, sorted(s)))
        if not isinstance(s["calls_by_peer"], dict):
            fail("%s session %r calls_by_peer not an object"
                 % (bench, s["session"]))
        if sum(s["calls_by_peer"].values()) > s["nested_calls"]:
            fail("%s session %r: per-peer calls (%d) exceed nested_calls (%d)"
                 % (bench, s["session"], sum(s["calls_by_peer"].values()),
                    s["nested_calls"]))
        if s["flush_stalls"] > 0 and s["flush_stall_ms"] <= 0:
            fail("%s session %r: %d flush stalls but zero stall time"
                 % (bench, s["session"], s["flush_stalls"]))
        total_requests += s["requests"]
    if total_requests == 0:
        fail("%s session_telemetry reports zero requests across all sessions"
             % bench)


def check_blame(bench, b):
    if not isinstance(b, dict):
        fail("%s p99_blame is not an object: %r" % (bench, b))
    for k in REQUIRED_BLAME:
        if k not in b:
            fail("%s p99_blame missing field %r (has %s)"
                 % (bench, k, sorted(b)))
    for k in BLAME_BUCKETS:
        if k not in b["buckets"]:
            fail("%s p99_blame buckets missing %r" % (bench, k))
        if b["buckets"][k] < 0:
            fail("%s p99_blame bucket %r negative: %r" % (bench, k, b))
    if b["traces_slow"] > b["traces_total"]:
        fail("%s p99_blame slow > total: %r" % (bench, b))
    if b["traces_slow"] > 0:
        if b["total_ms"] <= 0:
            fail("%s p99_blame has slow traces but zero total time: %r"
                 % (bench, b))
        # Buckets partition total_ms ('other' absorbs the remainder), so
        # shares must sum to ~1.
        share_sum = sum(b["shares"].values())
        if not 0.99 <= share_sum <= 1.01:
            fail("%s p99_blame shares sum to %.4f, expected ~1: %r"
                 % (bench, share_sum, b))


def check_outage_report(bench, rep):
    if not isinstance(rep, dict):
        fail("%s outage_report is not an object: %r" % (bench, rep))
    for k in REQUIRED_OUTAGE:
        if k not in rep:
            fail("%s outage_report missing field %r (has %s)"
                 % (bench, k, sorted(rep)))
    for k in REQUIRED_MTTR:
        if k not in rep["mttr"]:
            fail("%s outage_report mttr missing %r" % (bench, k))
    if not rep["valid"]:
        # No joined crash (e.g. a zero-crash-rate point): the empty report
        # must not pretend otherwise.
        if rep["sessions"] or rep["mttr"]["count"] != 0:
            fail("%s invalid outage_report carries data: %r" % (bench, rep))
        return
    for s in rep["sessions"]:
        for k in ["session", "fate", "was_in_flight", "servable_at_ms",
                  "time_to_servable_ms", "requests_replayed"]:
            if k not in s:
                fail("%s outage session missing %r: %r" % (bench, k, s))
        if s["fate"] not in OUTAGE_FATES:
            fail("%s unknown outage fate %r" % (bench, s["fate"]))
        if s["fate"] != "pending" and s["time_to_servable_ms"] < 0:
            fail("%s session %r negative time-to-servable: %r"
                 % (bench, s["session"], s))
    m = rep["mttr"]
    if m["count"] > 0:
        if not (0 <= m["p50_ms"] <= m["p90_ms"] <= m["p99_ms"] <= m["max_ms"]):
            fail("%s outage MTTR quantiles not monotonic: %r" % (bench, m))
    if rep["complete"]:
        pending = [s for s in rep["sessions"] if s["fate"] == "pending"]
        if pending:
            fail("%s outage_report complete but has pending fates: %r"
                 % (bench, pending))


def main():
    if len(sys.argv) < 2:
        fail("usage: check_bench_json.py <bench-binary> [args...]")
    cmd = sys.argv[1:]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        fail("bench binary timed out: %s" % " ".join(cmd))
    if out.returncode != 0:
        fail("bench binary exited %d:\n%s" % (out.returncode, out.stderr))

    blobs = []
    for line in out.stdout.splitlines():
        if not line.startswith("BENCH_JSON "):
            continue
        raw = line[len("BENCH_JSON "):]
        try:
            blobs.append(json.loads(raw))
        except ValueError as e:
            fail("unparseable BENCH_JSON line (%s): %s" % (e, raw))
    if not blobs:
        tail = "\n".join(out.stdout.splitlines()[-10:])
        fail("no BENCH_JSON lines in output of: %s\n"
             "The bench ran (exit 0) but emitted no machine-readable "
             "results — its BENCH_JSON emitter is broken or was renamed.\n"
             "Last stdout lines were:\n%s" % (" ".join(cmd), tail))

    for blob in blobs:
        if blob.get("bench") in RECOVERY_BENCHES:
            if "outage_report" not in blob:
                fail("%s blob missing outage_report" % blob["bench"])
            check_outage_report(blob["bench"], blob["outage_report"])
            continue
        if blob.get("bench") in MICRO_BENCHES:
            for k in REQUIRED_MICRO:
                if k not in blob:
                    fail("%s blob missing field %r (has %s)"
                         % (blob["bench"], k, sorted(blob)))
                if not isinstance(blob[k], (int, float)) or blob[k] <= 0:
                    fail("%s field %r not a positive number: %r"
                         % (blob["bench"], k, blob[k]))
            # The zero-copy span encode exists to beat the allocating one.
            # Sanitizer instrumentation (TSan shadows every byte written)
            # distorts the ratio, so — like compare_bench's tolerance
            # bands — the check is skipped for sanitized blobs.
            if not blob.get("sanitized") and \
                    blob["encode_to_ns"] > blob["encode_ns"] * 1.5:
                fail("%s encode_to (%.0f ns) much slower than encode "
                     "(%.0f ns) — the zero-copy path regressed"
                     % (blob["bench"], blob["encode_to_ns"],
                        blob["encode_ns"]))
            continue
        for k in REQUIRED_TOP:
            if k not in blob:
                fail("blob missing field %r: %s" % (k, sorted(blob)))
        if blob["requests"] <= 0:
            fail("blob reports zero completed requests: %r" % blob)
        if not (0 < blob["p50_ms"] <= blob["p90_ms"] <= blob["p99_ms"]):
            fail("response quantiles not monotonic: %r" % blob)
        for k in HIST_KEYS:
            if k in blob:
                check_hist(k, blob[k])
        # The server must have attributed work to the breakdowns.
        if "execute" in blob and blob["execute"]["count"] == 0:
            fail("execute histogram recorded nothing: %r" % blob)
        if blob["bench"] in TELEMETRY_BENCHES:
            if "session_telemetry" not in blob:
                fail("%s blob missing session_telemetry" % blob["bench"])
            if "p99_blame" not in blob:
                fail("%s blob missing p99_blame" % blob["bench"])
            check_telemetry(blob["bench"], blob["session_telemetry"])
            check_blame(blob["bench"], blob["p99_blame"])

    print("check_bench_json: OK (%d blob(s) from %s)"
          % (len(blobs), " ".join(cmd)))


if __name__ == "__main__":
    main()
