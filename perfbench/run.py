#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one
workload, print the result line.

    python3 perfbench/run.py --workload solve|sharded|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The driver binary is built with CMake into
.bench_build/perfbench (first run only; later runs are incremental no-ops).
Every line but the last is provenance (resolved engine spec, kernel ISA,
thread budget, seed, sample counts, host calibration); the last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  Per-layer metrics of a layer the workload
does not run are reported as 0 and listed under "not_applicable".  Exit
status is non-zero when a correctness check failed or the run could not
complete.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("solve", "sharded", "fleet")
RUN_TIMEOUT_S = 170

# Benchmark-side spans whose self-time is a per-layer metric.
SPAN_METRICS = {
    "bench.resolve": "tune.resolve_s",
    "bench.construct": "thiim.construct_s",
    "bench.finalize": "thiim.finalize_s",
    "bench.observables": "em.observables_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("repository sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def self_times(path):
    """Span name -> list of self-times (s): duration minus the part covered
    by direct children on the same thread.  One trace document per line."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            by_tid = {}
            for ev in json.loads(line)["traceEvents"]:
                if ev.get("ph") == "X":
                    by_tid.setdefault(ev["tid"], []).append(ev)
            for events in by_tid.values():
                # Parents first: earlier start, then longer duration.
                events.sort(key=lambda e: (e["ts"], -e["dur"]))
                stack = []  # [end_us, name, child_us]
                def close(frame):
                    out.setdefault(frame[1], []).append((frame[3] - frame[2]) / 1e6)
                for ev in events:
                    end = ev["ts"] + ev["dur"]
                    while stack and stack[-1][0] <= ev["ts"]:
                        close(stack.pop())
                    if stack:
                        stack[-1][2] += ev["dur"]
                    stack.append([end, ev["name"], 0.0, ev["dur"]])
                while stack:
                    close(stack.pop())
    return out


def run_driver(args):
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    cmd = [os.path.join(BUILD, "perfbench"), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT)]
    # Own process group: a timeout kills the fleet daemon child too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver exited {proc.returncode} without a report")
    return proc.returncode, json.loads(lines[-1]), work


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        end_to_end, per_layer = catalogue()
        build()
        code, report, work = run_driver(args)
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 1

    wanted = per_layer if args.trace else end_to_end
    metrics = report["metrics"]
    info = report["info"]
    if args.trace:
        spans = {}
        for name in sorted(os.listdir(work)):
            if name.startswith("trace-"):
                for span, times in self_times(os.path.join(work, name)).items():
                    spans.setdefault(span, []).extend(times)
        for span, times in sorted(spans.items()):
            log(f"self-time {span:28s} n={len(times):6d} total={sum(times):10.4f} s"
                f" p50={statistics.median(times):.6f} s")
            if span in SPAN_METRICS:
                metrics[SPAN_METRICS[span]] = {"value": statistics.median(times),
                                               "unit": "s"}
        info["not_applicable"] = sorted(set(wanted) - set(metrics))
        for name in info["not_applicable"]:
            metrics[name] = {"value": 0.0, "unit": per_layer[name]}
    bad = [n for n, m in metrics.items() if n not in wanted or m["unit"] != wanted[n]]
    missing = sorted(set(wanted) - set(metrics))
    if bad or missing:
        log(f"perfbench: metrics off the catalogue {bad}, missing {missing}")
        return 1

    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {n: metrics[n] for n in wanted}}))
    return code if code != 0 else (0 if report["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
