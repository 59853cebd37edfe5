#!/usr/bin/env python3
"""Gate the batch sweep smoke run (see .github/workflows/ci.yml).

Takes the CSVs written by spectrum_sweep runs over identical physics, as
one (serial, concurrent) pair per repeat — a serial baseline (--jobs=1) and
a concurrent run (--jobs=N) — and asserts:

  * every CSV carries exactly --rows per-job rows plus one `total` row;
  * every job finished ok;
  * per-job observables (absorption columns) are IDENTICAL across all
    runs: batch concurrency is placement-only, bit-exact by contract;
  * the MEDIAN over the pairs of concurrent wall / serial wall is
    <= --max-ratio (the co-scheduling win the paper's Sec. VI fleet
    workload motivates).  One pair's ratio flips across the bound on
    unchanged code on shared runners; the median of three does not;
  * every concurrent run actually exercised the EnginePool (>= --min-reused
    pooled-engine reuses, from the `reused` column).

Exit code 0 = gate passed.
"""

import argparse
import csv
import statistics
import sys


def read_sweep(path):
    """Return (job_rows, total_row) from a spectrum_sweep CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    jobs = [r for r in rows if r["lambda(cells)"] != "total"]
    totals = [r for r in rows if r["lambda(cells)"] == "total"]
    if len(totals) != 1:
        sys.exit(f"FAIL: {path}: expected exactly one `total` row, got {len(totals)}")
    return jobs, totals[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csvs", nargs="+", metavar="serial_csv concurrent_csv",
                    help="spectrum_sweep --jobs=1 and --jobs=N outputs, one "
                         "pair per repeat")
    ap.add_argument("--rows", type=int, required=True,
                    help="expected per-job row count (== --lambdas)")
    ap.add_argument("--max-ratio", type=float, default=1.0,
                    help="max median concurrent/serial wall-time ratio")
    ap.add_argument("--min-reused", type=int, default=1,
                    help="min pooled-engine reuses in each concurrent run")
    args = ap.parse_args()
    if len(args.csvs) % 2:
        ap.error("expected (serial, concurrent) CSV pairs")
    pairs = list(zip(args.csvs[0::2], args.csvs[1::2]))

    failures = []
    runs = {}
    for serial_csv, conc_csv in pairs:
        for path in (serial_csv, conc_csv):
            jobs, total = read_sweep(path)
            runs[path] = (jobs, total)
            if len(jobs) != args.rows:
                failures.append(f"{path}: {len(jobs)} per-job rows, expected {args.rows}")
            bad = [r["lambda(cells)"] for r in jobs if r["status"] != "ok"]
            if bad:
                failures.append(f"{path}: jobs not ok at lambda {bad}")

    # Bit-exactness: the observable columns must match row for row, in every
    # run, against the first serial baseline.
    observables = ["lambda(cells)", "abs a-Si:H", "abs uc-Si:H", "abs TCO", "useful %"]
    base_path = pairs[0][0]
    base_jobs = runs[base_path][0]
    for path, (jobs, _) in runs.items():
        for s, c in zip(base_jobs, jobs):
            for col in observables:
                if s[col] != c[col]:
                    failures.append(
                        f"observable mismatch at lambda {s['lambda(cells)']}: "
                        f"{col} {base_path}={s[col]} {path}={c[col]}")

    ratios = []
    for serial_csv, conc_csv in pairs:
        serial_wall = float(runs[serial_csv][1]["wall_s"])
        conc_wall = float(runs[conc_csv][1]["wall_s"])
        ratio = conc_wall / serial_wall if serial_wall > 0 else float("inf")
        ratios.append(ratio)
        print(f"{serial_csv}: serial wall {serial_wall:.3f} s, {conc_csv}: "
              f"concurrent wall {conc_wall:.3f} s, ratio {ratio:.3f}")
    ratio = statistics.median(ratios)
    print(f"median ratio over {len(ratios)} pair(s): {ratio:.3f} (gate {args.max_ratio})")
    if ratio > args.max_ratio:
        failures.append(
            f"concurrent sweep too slow: median ratio {ratio:.3f} > {args.max_ratio}")

    for _, conc_csv in pairs:
        reused = sum(int(r["reused"]) for r in runs[conc_csv][0])
        print(f"{conc_csv}: reused pooled engines for {reused} job(s) "
              f"(gate >= {args.min_reused})")
        if reused < args.min_reused:
            failures.append(
                f"{conc_csv}: engine pool unused: {reused} reuses < {args.min_reused}")

    if failures:
        print("FAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    speedup = 1.0 / ratio if ratio > 0 else float("inf")
    print(f"OK: {len(runs)} runs of {args.rows} jobs bit-exact, "
          f"{speedup:.2f}x median speedup over the serial baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
