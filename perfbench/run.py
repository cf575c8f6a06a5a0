#!/usr/bin/env python3
"""Build and run the msplog end-to-end benchmark.

    python3 perfbench/run.py --workload paper_1c|saturate|restart|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Every run configures and builds the benchmark
package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; only the first run compiles everything. Build output goes to
stderr.

The last line of standard output is one JSON object:
    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). "--workload all" runs the three workloads in
turn and prefixes each metric with its workload's name. A failed build, a
failed correctness check or a metric set that does not match BENCHMARK.json
exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper_1c", "saturate", "restart"]
RUN_TIMEOUT_S = 170


def root_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root):
    out_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = os.path.join(out_dir, "msplog_perfbench")
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out_dir, "-j4", "--target", "msplog_perfbench"],
        stdout=sys.stderr, check=True)
    return binary, out_dir


def expected_metrics(root, trace):
    """{name: unit} of BENCHMARK.json for this kind of run, or None."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, out_dir, workload, seed, seconds, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("%s: exit code %d\n" % (workload, proc.returncode))
        return None, lines
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("attempted", 0) < 1:
        sys.stderr.write("%s: correctness check failed\n" % workload)
        return None, lines
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            sys.stderr.write(
                "%s: metrics differ from BENCHMARK.json: missing %s, extra %s,"
                " unit mismatch %s\n" % (
                    workload, sorted(set(expected) - set(got)),
                    sorted(set(got) - set(expected)),
                    sorted(k for k in got
                           if k in expected and got[k] != expected[k])))
            return None, lines
    return result, lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = root_dir()
    try:
        binary, out_dir = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("build failed: %s\n" % e)
        return 2
    expected = expected_metrics(root, args.trace == 1)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        try:
            result, notes = run_one(binary, out_dir, w, args.seed,
                                    args.seconds, args.trace == 1, expected)
        except subprocess.TimeoutExpired:
            sys.stderr.write("%s: no result within %d s\n" % (w, RUN_TIMEOUT_S))
            return 1
        for note in notes:
            print(note)
        if result is None:
            return 1
        if len(workloads) == 1:
            combined = result
            break
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
