#!/usr/bin/env python3
"""Live-pipeline freshness benchmark: build, run one workload, print JSON.

    python3 perfbench/run.py --workload tpcc_steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark binary is built from the
checkout's sources into .bench_build/perfbench (Release). The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"};
the line before it is the host and build stamp. A failed output check, an
invalid run or a build problem exits non-zero without a result line.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "freshness")
RUN_TIMEOUT_S = 170  # per run, not counting the build
# The measurement plan of a run. The workloads themselves (rates, burst
# size B) are defined in pipeline.cc.
STEADY_SHARE = 0.6  # share of --seconds given to the steady phase
STEADY_SLICES = 4
BURSTS = {"tpcc_steady": 24, "bustracker_skew": 12, "chbench_tcp_durable": 20}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "aets"))):
        fail("AETS sources not found next to perfbench/; run from a full "
             "source checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "freshness",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)


def cpu_info():
    model, mhz = "unknown", 0.0
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "cpu MHz" and mhz == 0.0:
                    mhz = float(val.strip())
    except OSError:
        pass
    return model, mhz


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_stamp():
    out = subprocess.run([BINARY, "--build-info"], capture_output=True,
                         text=True, timeout=30)
    if out.returncode != 0:
        fail("build-info failed", 2)
    build_info = json.loads(out.stdout.strip().splitlines()[-1])
    model, mhz = cpu_info()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    stamp = {"nproc": nproc, "cpu_model": model, "cpu_mhz": mhz,
             "git_commit": git_commit()}
    stamp.update(build_info)
    return stamp


def percentile(values, p):
    """Linear interpolation between order statistics (as the binary does)."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def run_binary(args, run_dir, deadline):
    """Runs the benchmark binary once; returns its last stdout line as JSON."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    tmp = tempfile.mkdtemp(dir=run_dir)
    try:
        proc = subprocess.run([BINARY, "--tmp-dir", tmp] + args,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{' '.join(args)}: exit code {proc.returncode}; no result",
             proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no result line", 2)
    return json.loads(lines[-1])


def end_to_end(args, run_dir, deadline):
    """The untraced run, as separate processes ("slices"): the steady phase
    split over STEADY_SLICES processes, and one process per burst. The
    drain rate of one and the same burst moves by about 15 % between fresh
    processes but under 10 % inside one process, so a run that was one
    process would be a single draw of that process-level state; pooling
    slices averages it out."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    steady_s = args.seconds * STEADY_SHARE / STEADY_SLICES
    steady = common + ["--slice", "steady", "--seconds", f"{steady_s:.3f}"]
    burst = common + ["--slice", "burst"]
    bursts = BURSTS[args.workload]
    plan = []  # steady and burst slices interleaved
    for i in range(max(STEADY_SLICES, bursts)):
        if i < STEADY_SLICES:
            plan.append(steady)
        if i < bursts:
            plan.append(burst)
    pooled = {"setup_s": [], "visibility_us": [], "query_us": [],
              "drain_s": []}
    burst_txns = 0
    attempted = failed = 0
    peak = 0.0
    for slice_args in plan:
        out = run_binary(slice_args, run_dir, deadline)
        attempted += out["attempted"]
        failed += out["failed"]
        peak = max(peak, out["peak_rss_mb"])
        for key in pooled:
            pooled[key] += out.get(key, [])
        burst_txns += out.get("burst_txns", 0) * len(out.get("drain_s", []))
    metrics = {
        "visibility_p50_us": (percentile(pooled["visibility_us"], 50), "us"),
        "visibility_p99_us": (percentile(pooled["visibility_us"], 99), "us"),
        "query_p50_us": (percentile(pooled["query_us"], 50), "us"),
        "query_p99_us": (percentile(pooled["query_us"], 99), "us"),
        "replay_txn_per_s": (burst_txns / sum(pooled["drain_s"]), "1/s"),
        "setup_s": (percentile(pooled["setup_s"], 50), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def check_result(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: " + json.dumps(result), 2)
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result not correct: " + json.dumps(result), 1)
    if result["failed"] != 0:
        fail("operations failed; the numbers are not comparable: "
             + json.dumps(result), 3)
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            fail("malformed metric " + name, 2)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check fires on a planted "
                         "mismatch")
    args = ap.parse_args()
    if not args.self_test and args.workload not in BURSTS:
        ap.error("--workload must be one of " + ", ".join(BURSTS))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    stamp = host_stamp()
    run_dir = os.path.join(BUILD, "runs", str(os.getpid()))
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        if args.self_test:
            tmp = tempfile.mkdtemp(dir=run_dir)
            proc = subprocess.run([BINARY, "--self-test", "--tmp-dir", tmp],
                                  stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
            sys.exit(proc.returncode)
        if args.trace:
            result = run_binary(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", f"{args.seconds * STEADY_SHARE:.3f}",
                 "--trace", "1", "--out-dir", trace_dir], run_dir, deadline)
        else:
            result = end_to_end(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    check_result(result)
    if not stamp.get("ndebug"):
        print("WARNING: benchmark binary built without NDEBUG")
    print("host: " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
