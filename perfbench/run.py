#!/usr/bin/env python3
"""Benchmark of the OpenMP-MCA runtime on its MCA backend.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sync --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and with it the runtime from src/) into .bench_build/,
runs one workload, checks its outputs, and prints a readable report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
(see perfbench/README.md).  Exits non-zero when the build fails, when the
program crashes, or when any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("fork_join", "sync", "npb", "tenants")
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# What "op" means on each workload, and the name the metric goes by there.
ALIASES = {
    "fork_join": {"op_p50_us": "region_p50_us", "op_p99_us": "region_p99_us",
                  "ops_per_s": "regions_per_s"},
    "tenants": {"op_p50_us": "region_p50_us", "op_p99_us": "region_p99_us",
                "ops_per_s": "regions_per_s"},
    "sync": {"op_p50_us": "critical_p50_us", "op_p99_us": "critical_p99_us",
             "ops_per_s": "critical_ops_per_s"},
    "npb": {"op_p50_us": "npb_time_s x 1e6",
            "op_p99_us": "npb_time_s x 1e6 (one pass per sub-run)",
            "ops_per_s": "passes_per_s"},
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
            not os.path.exists(os.path.join(BUILD, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            show_tail(log)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = max(1.0, deadline - time.monotonic())
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log,
                  remaining) != 0:
        show_tail(log)
        fail("build failed")


def show_tail(path, lines=30):
    with open(path) as f:
        print("".join(f.readlines()[-lines:]), file=sys.stderr, end="")


def steal_ticks():
    """CPU time stolen by the hypervisor, summed over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def run_child(argv, env=None):
    """Runs argv with its stdout in a file; returns (stdout, status, rusage).

    wait4 gives the child's own rusage (peak RSS, context switches) without
    the compilers of the build mixed in.
    """
    out_path = os.path.join(BUILD, "child.out")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(argv, stdout=out, env=env)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        return f.read(), proc.returncode, rusage


def last_json(text, what):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                break
    fail(f"{what} printed no result")


def twin_refs(seed, ref_mca):
    """Host libgomp on the fork_join and sync shapes (ungated reference)."""
    env = dict(os.environ, OMP_WAIT_POLICY="active", OMP_NUM_THREADS="3",
               OMP_DYNAMIC="false")
    twin = os.path.join(BUILD, "perfbench_libgomp")
    res = {}
    for shape in ("fork_join", "sync"):
        text, code, _ = run_child([twin, "--shape", shape, "--seed",
                                   str(seed), "--seconds", "1"], env)
        if code != 0:
            fail(f"libgomp twin exited with {code}")
        res[shape] = last_json(text, "libgomp twin")
    gomp_p50 = res["fork_join"]["op_p50_us"]
    gomp_ops = res["sync"]["ops_per_s"]
    fj_n = res["fork_join"]["attempted"]
    sy_n = res["sync"]["attempted"]
    layers = {
        "ref.libgomp.fork_join.op_p50_us": (gomp_p50, "us", fj_n),
        "ref.libgomp.sync.ops_per_s": (gomp_ops, "1/s", sy_n),
        "ref.mca_over_libgomp.fork_join":
            (ref_mca["fork_join.op_p50_us"] / gomp_p50 if gomp_p50 else 0.0,
             "ratio", fj_n),
        "ref.mca_over_libgomp.sync":
            (gomp_ops / ref_mca["sync.ops_per_s"]
             if ref_mca["sync.ops_per_s"] else 0.0, "ratio", sy_n),
    }
    attempted = sum(r["attempted"] for r in res.values())
    failed = sum(r["failed"] for r in res.values())
    return layers, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        fail("--seconds must be 1..60 and --seed non-negative")

    build()

    argv = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans = os.path.join(BUILD, "spans",
                             f"{args.workload}-{args.seed}.jsonl")
        argv += ["--spans", spans]

    steal0 = steal_ticks()
    t0 = time.monotonic()
    text, code, ru = run_child(argv)
    health = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": round(time.monotonic() - t0, 3),
        "steal_ticks": steal_ticks() - steal0,
        "involuntary_ctx_switches": ru.ru_nivcsw,
        "voluntary_ctx_switches": ru.ru_nvcsw,
        "loadavg_1m": os.getloadavg()[0],
    }
    res = last_json(text, "perfbench") if code == 0 else {}
    if "sub_runs" in res:
        health["sub_runs"] = [[r["steal_ticks"], r["ops_per_s"]]
                              for r in res["sub_runs"]]
    with open(os.path.join(BUILD, "health.jsonl"), "a") as f:
        f.write(json.dumps(health) + "\n")
    if code != 0:
        fail(f"perfbench exited with {code}")
    attempted, failed = res["attempted"], res["failed"]

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace == 0:
        metrics = {
            "setup_s": (res["setup_s"], "s"),
            "peak_rss_mb": (ru.ru_maxrss / 1024.0, "MB"),
            "op_p50_us": (res["op_p50_us"], "us"),
            "op_p99_us": (res["op_p99_us"], "us"),
            "ops_per_s": (res["ops_per_s"], "1/s"),
        }
        notes = {
            "setup_s": f"median of {res['setups']} set-ups",
            "peak_rss_mb": "peak resident set of the workload's process",
        }
        subs = len(res["sub_runs"])
        for key, alias in ALIASES[args.workload].items():
            side = "75th" if key == "ops_per_s" else "25th"
            notes[key] = (f"{alias}, {res['op_samples']} samples, "
                          f"{side} percentile of {subs} sub-runs")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<22} {value:>14.6g} {unit:<5} {notes[name]}")
    else:
        layers, t_att, t_fail = twin_refs(args.seed, res["ref_mca"])
        attempted += t_att
        failed += t_fail
        metrics = {}
        for name, row in res["layers"].items():
            metrics[name] = (row["value"], row["unit"])
            print(f"  {name:<34} {row['value']:>14.6g} {row['unit']:<5} "
                  f"samples={row['samples']} from={row['source']}")
        for name, (value, unit, samples) in layers.items():
            metrics[name] = (value, unit)
            print(f"  {name:<34} {value:>14.6g} {unit:<5} "
                  f"samples={samples} from=libgomp twin")
    error_rate = failed / attempted if attempted else 1.0
    print(f"  error_rate {error_rate:.6g} ({failed} failed of {attempted})")
    health.pop("sub_runs", None)  # long; kept in health.jsonl
    print("health " + json.dumps(health))

    # End-to-end figures are never 0 on a working program.
    correct = attempted > 0 and failed == 0 and all(
        math.isfinite(v) and (args.trace or v > 0)
        for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
