#!/usr/bin/env python3
"""Gate the shard-scaling smoke CSVs written by bench_shard_scaling --csv.

Takes one CSV per repeat of the same bench command.  The redundant-LUP,
transport and wall-time checks apply to every CSV; the exposed-halo ratio
is gated on its median over the CSVs (see 2b).

Two families of checks:

1. Redundant-LUP regression.  With K shards and exchange interval T, every
   interior cut adds 2*T ghost planes of recompute per round, so the
   expected redundant-LUP fraction for the CI smoke (nz=64, K=2, T=1) is
   ~3.1% per inner engine.  A jump past the threshold means the overlap
   bookkeeping regressed — shards stepping more ghost planes than the
   exchange interval requires — which exit-status-only checks would never
   catch.

2. Overlap-protocol gates.  The bench emits every multi-shard point twice
   (overlap column 0 = barrier exchange, 1 = post/wait protocol).  The
   overlapped rows must (a) not be slower in wall time than their barrier
   twins beyond --max-slower-pct (scheduling noise allowance), and (b) show
   a strictly lower AGGREGATE exposed-halo time (wait + copy - hidden,
   summed over the gated rows) — the whole point of the protocol is
   shrinking the exchange stall on the critical path.  One run's ratio
   swings from about 0.96 to 1.6 on a 4-vCPU VM with unchanged code, so the
   gate takes the median ratio of the repeats: a single noisy run can
   neither fail nor pass it on its own.

   The wall-time gate skips rows with shards x threads/shard beyond
   --gate-max-threads: those points deliberately oversubscribe the bench's
   thread budget, where wall time measures scheduler pressure rather than
   the exchange protocol, which makes a hard threshold flaky on shared CI
   runners.  The exposed-halo aggregate spans ALL twin pairs — the bench
   reports each point's minimum-exposed repeat (the floor reflects the
   protocol's structure, spikes reflect the scheduler), and the
   oversubscribed points are where the pairwise protocol's advantage over
   the global barrier is largest.
"""
import argparse
import csv
import statistics
import sys


def check_redundant(rows, shards, max_redundant_pct):
    checked = 0
    worst = 0.0
    for row in rows:
        if int(row["shards"]) != shards:
            continue
        pct = float(row["redundant LUP %"])
        checked += 1
        worst = max(worst, pct)
        print(
            f"{row['inner']}: K={row['shards']} overlap={row.get('overlap', '0')} "
            f"redundant LUP {pct:.3f}% (threshold {max_redundant_pct}%)"
        )
        if pct > max_redundant_pct:
            print("FAIL: redundant-LUP fraction regressed", file=sys.stderr)
            return False
    if not checked:
        print(f"FAIL: no rows with shards == {shards}", file=sys.stderr)
        return False
    print(f"OK: {checked} redundant-LUP row(s) checked, worst {worst:.3f}%")
    return True


def check_overlap(rows, max_slower_pct, gate_max_threads):
    """Wall-time gate for one CSV; returns (ok, aggregate exposed ratio).

    The ratio is None when the CSV has no complete twin pair."""
    # The bench emits a barrier row once per (inner, K) — staging only
    # happens in overlap mode, so barrier rows are transport-independent —
    # and one overlap row per (inner, K, transport).  Every overlap row is
    # gated against that shared barrier twin.
    barriers = {}
    overlaps = {}
    for row in rows:
        if int(row["shards"]) <= 1:
            continue
        transport = row.get("transport", "local")
        if row["overlap"] == "1":
            overlaps[(row["inner"], int(row["shards"]), transport)] = row
        else:
            barriers.setdefault((row["inner"], int(row["shards"])), row)

    if not barriers and not overlaps:
        print("FAIL: no multi-shard rows to compare", file=sys.stderr)
        return False, None

    exposed_barrier = 0.0
    exposed_overlap = 0.0
    compared = 0
    ok = True
    for key, ovl in sorted(overlaps.items()):
        bar = barriers.get((key[0], key[1]))
        if bar is None:
            print(f"FAIL: {key} missing its barrier twin", file=sys.stderr)
            ok = False
            continue
        total_threads = key[1] * int(bar["threads/shard"])
        wall_gated = gate_max_threads <= 0 or total_threads <= gate_max_threads
        wall_bar = float(bar["seconds"])
        wall_ovl = float(ovl["seconds"])
        slower_pct = 100.0 * (wall_ovl - wall_bar) / wall_bar if wall_bar > 0 else 0.0
        print(
            f"{key[0]}: K={key[1]} transport={key[2]} "
            f"wall barrier={wall_bar:.4f}s overlap={wall_ovl:.4f}s "
            f"({slower_pct:+.1f}%), exposed barrier={float(bar['halo exposed s']):.4f}s "
            f"overlap={float(ovl['halo exposed s']):.4f}s, "
            f"hidden={float(ovl['halo hidden s']):.5f}s"
            + ("" if wall_gated else "  [oversubscribed: wall time informational]")
        )
        compared += 1
        exposed_barrier += float(bar["halo exposed s"])
        exposed_overlap += float(ovl["halo exposed s"])
        if wall_gated and slower_pct > max_slower_pct:
            print(
                f"FAIL: overlapped run slower than barrier by {slower_pct:.1f}% "
                f"(> {max_slower_pct}%)",
                file=sys.stderr,
            )
            ok = False

    if not compared:
        print("FAIL: no complete twin pairs to compare", file=sys.stderr)
        return False, None
    ratio = exposed_overlap / exposed_barrier if exposed_barrier > 0 else 1.0
    print(
        f"aggregate exposed halo over {compared} pair(s): "
        f"barrier={exposed_barrier:.4f}s overlap={exposed_overlap:.4f}s "
        f"ratio={ratio:.3f}"
    )
    return ok, ratio


def check_exposed_median(ratios, max_exposed_ratio):
    median = statistics.median(ratios)
    listed = ", ".join(f"{r:.3f}" for r in ratios)
    print(
        f"median exposed-halo ratio over {len(ratios)} run(s): {median:.3f} "
        f"(runs: {listed}; threshold {max_exposed_ratio})"
    )
    if median >= max_exposed_ratio:
        print(
            "FAIL: overlapped exchange did not lower the aggregate exposed-halo time",
            file=sys.stderr,
        )
        return False
    print("OK: overlap gates passed")
    return True


def check_transport(rows, name):
    """Require rows for the named halo transport and, on its overlap rows,
    nonzero staged payload — proof the bytes actually went through the
    transport's stage path rather than silently falling back."""
    seen = 0
    overlap_rows = 0
    ok = True
    for row in rows:
        if row.get("transport", "local") != name:
            continue
        seen += 1
        if row.get("overlap") != "1":
            continue
        overlap_rows += 1
        staged_mb = float(row.get("staged MB", "0") or "0")
        print(
            f"{row['inner']}: K={row['shards']} transport={name} "
            f"staged {staged_mb:.3f} MiB, stage {row.get('halo stage s', '?')}s, "
            f"unstage {row.get('halo unstage s', '?')}s"
        )
        if staged_mb <= 0.0:
            print(
                f"FAIL: transport={name} overlap row staged no bytes", file=sys.stderr
            )
            ok = False
    if seen == 0:
        print(f"FAIL: no rows ran transport={name}", file=sys.stderr)
        return False
    if overlap_rows == 0:
        print(f"FAIL: no overlap rows ran transport={name}", file=sys.stderr)
        return False
    if ok:
        print(f"OK: {overlap_rows} overlap row(s) moved bytes over transport={name}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "csv_paths",
        nargs="+",
        help="CSVs written by bench_shard_scaling --csv, one per repeat of the same command",
    )
    ap.add_argument("--shards", type=int, default=2, help="shard-count rows to check")
    ap.add_argument("--max-redundant-pct", type=float, default=10.0)
    ap.add_argument(
        "--check-overlap",
        action="store_true",
        help="also gate overlapped vs. barrier twins (wall time + exposed halo)",
    )
    ap.add_argument(
        "--max-slower-pct",
        type=float,
        default=15.0,
        help="wall-time regression allowance for an overlapped row vs. its twin",
    )
    ap.add_argument(
        "--max-exposed-ratio",
        type=float,
        default=1.0,
        help="median over the CSVs of the aggregate exposed-halo(overlap)/"
        "exposed-halo(barrier) ratio must stay below this",
    )
    ap.add_argument(
        "--require-transport",
        default="",
        metavar="NAME",
        help="require rows that ran this halo transport, with nonzero staged "
        "bytes on its overlap rows (e.g. local)",
    )
    ap.add_argument(
        "--gate-max-threads",
        type=int,
        default=0,
        help="gate only rows with shards x threads/shard <= this (0 = gate all rows); "
        "set it to the bench's --threads budget to exclude deliberately "
        "oversubscribed points",
    )
    args = ap.parse_args()

    ok = True
    ratios = []
    for path in args.csv_paths:
        print(f"== {path}")
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        ok = check_redundant(rows, args.shards, args.max_redundant_pct) and ok
        if args.require_transport:
            ok = check_transport(rows, args.require_transport) and ok
        if args.check_overlap:
            wall_ok, ratio = check_overlap(rows, args.max_slower_pct, args.gate_max_threads)
            ok = wall_ok and ok
            if ratio is None:
                ok = False
            else:
                ratios.append(ratio)
    if args.check_overlap and ratios:
        ok = check_exposed_median(ratios, args.max_exposed_ratio) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
