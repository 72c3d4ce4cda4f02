#!/usr/bin/env python3
"""Check that two traced runs of the same code counted the same work.

Usage::

    python3 perfbench/run.py --workload W --seed N --trace 1 --out-dir .perfbench-out/a
    python3 perfbench/run.py --workload W --seed N --trace 1 --out-dir .perfbench-out/b
    python3 perfbench/compare_counts.py .perfbench-out/a/W-seedN-trace1.json \\
        .perfbench-out/b/W-seedN-trace1.json

Compares every per-layer metric with unit ``count``, plus the
``sat.solve.*`` and ``flow.prefix.*`` metrics, and prints each one
that differs.  A count may support a claim only if it repeats exactly
(``perfbench/RATIONALE.md`` lists the ones that do not).  Exits 1 when
any compared metric differs.
"""

from __future__ import annotations

import json
import sys


def compared(name: str, unit: str) -> bool:
    return (
        unit == "count"
        or name == "aig.ands_final"
        or name.startswith(("sat.solve.", "flow.prefix."))
    ) and not name.endswith(("busy_s", "self_s"))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.load(open(path, encoding="utf-8"))["metrics"]
                     for path in argv)
    differ = []
    for name, entry in sorted(first.items()):
        if not compared(name, entry["unit"]):
            continue
        other = second.get(name, {}).get("value")
        if other != entry["value"]:
            differ.append(name)
            print(f"{name}: {entry['value']} != {other}")
    print(f"{len(differ)} compared counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
