#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Run one workload N times with consecutive seeds and print, for every
metric, the median, the quartiles and the spread (third minus first
quartile, as a share of the median) against the metric's bound in
BENCHMARK.json; or compare two saved sets of runs.

    python3 perfbench/steady.py run --workload sharded --runs 10 --save a.json
    python3 perfbench/steady.py run --workload sharded --runs 10 --save b.json
    python3 perfbench/steady.py compare a.json b.json

`run` exits non-zero when a run fails or an end-to-end spread (setup_s
excepted) exceeds its bound.  `compare` exits non-zero when a metric's
second median is worse than the first by more than its bound.  Quartiles
are statistics.quantiles(values, n=4).  Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(workload, runs, seed0, seconds, trace):
    values, info = {}, []
    for i in range(runs):
        seed = seed0 + i
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            raise SystemExit(f"run with seed {seed} failed ({proc.returncode})")
        result = json.loads(lines[-1])
        info.append(lines[:-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        summary = "" if trace else " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: ok={result['correct']} {summary}", flush=True)
    return {"workload": workload, "seconds": seconds, "trace": trace,
            "seeds": list(range(seed0, seed0 + runs)), "values": values, "info": info}


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3, (q3 - q1) / med if med else float("inf")


def report(data, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"\n{data['workload']}: {len(data['seeds'])} runs, --seconds {data['seconds']}")
    # Every run must resolve the user's spec to the same plan.
    plans = {line for lines in data["info"] for line in lines
             if line.startswith("resolved_spec:")}
    for plan in sorted(plans):
        print(plan)
    if len(plans) > 1:
        print("PLANS DIFFER between runs")
        ok = False
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
          f" {'bound':>6s}  verdict")
    for name, vals in data["values"].items():
        if len(vals) < 2:
            continue
        q1, med, q3, s = spread(vals)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound (above a third of it)"
            else:
                verdict = "TOO NOISY" if name != "setup_s" else "noisy (setup_s exempt)"
                ok = ok and name == "setup_s"
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
    return ok


def compare(a, b, bench):
    ok = True
    print(f"{'metric':28s} {'median A':>12s} {'median B':>12s} {'change':>8s}"
          f" {'bound':>6s}  verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        if name not in a["values"] or name not in b["values"]:
            continue
        ma = statistics.median(a["values"][name])
        mb = statistics.median(b["values"][name])
        change = (mb - ma) / ma if ma else 0.0
        worse = -change if m["better"] == "higher" else change
        good = worse <= m["bound"]
        ok = ok and good
        print(f"{name:28s} {ma:12.6g} {mb:12.6g} {change:8.2%} {m['bound']:6}"
              f"  {'agree' if good else 'WORSE BEYOND BOUND'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--save", default=None, help="write the values as JSON")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    bench = load_bench()

    if args.cmd == "compare":
        with open(args.first) as f:
            a = json.load(f)
        with open(args.second) as f:
            b = json.load(f)
        if a["workload"] != b["workload"]:
            raise SystemExit("the two sets are of different workloads")
        return 0 if compare(a, b, bench) else 1

    seconds = args.seconds or bench["run_seconds"]
    data = run_set(args.workload, args.runs, args.seed0, seconds, args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f, indent=1)
    return 0 if report(data, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
