#!/usr/bin/env python3
"""Gate the row-kernel ISA a build's engines actually ran.

Every engine records the dispatched row-kernel variant in its stats
("kernel_isa").  This script collects every "kernel_isa" value from the
given engine-stats JSON documents (at any depth) and requires each to name
the variant the CPU advertises: "avx2" when /proc/cpuinfo lists the avx2
flag on an x86-64 host, "scalar" otherwise.  A build whose dispatch
silently fell back to scalar on an AVX2 runner fails here.  Pass only
documents whose kernel_isa comes from engine stats (the daemon status
JSON's scheduler.engine), not a program's own report of the dispatch.

    python3 .github/check_kernel_isa.py SERVE_status.json

Exit code 0 = gate passed.
"""

import json
import platform
import sys


def expected_isa(cpuinfo="/proc/cpuinfo"):
    if platform.machine() not in ("x86_64", "AMD64"):
        return "scalar"
    with open(cpuinfo) as fh:
        for line in fh:
            if line.startswith("flags"):
                return "avx2" if "avx2" in line.split(":", 1)[1].split() else "scalar"
    return "scalar"


def isa_values(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "kernel_isa":
                yield value
            else:
                yield from isa_values(value)
    elif isinstance(node, list):
        for item in node:
            yield from isa_values(item)


def main(paths):
    if not paths:
        sys.exit(__doc__)
    want = expected_isa()
    failures = []
    for path in paths:
        with open(path) as fh:
            found = list(isa_values(json.load(fh)))
        if not found:
            failures.append(f"{path}: no kernel_isa field")
        failures += [f"{path}: kernel_isa {got!r}, CPU flags say {want!r}"
                     for got in found if got != want]
    if failures:
        print("FAIL:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print(f"OK: every kernel_isa in {', '.join(paths)} is {want!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
