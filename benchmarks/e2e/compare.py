"""Compare two sets of end-to-end benchmark reports.

    python benchmarks/e2e/compare.py SET_A/ SET_B/

Each set is a directory of ``run.py --out`` reports (any depth).  For
every workload and end-to-end metric this prints each set's median,
quartiles and spread (interquartile range over median), and a verdict:

* ``ok``: the medians agree within the metric's bound from
  ``BENCHMARK.json`` and both spreads are within it;
* ``FAIL``: the medians differ by more than the bound;
* ``WIDE``: a set's spread exceeds the bound, so the metric cannot be
  judged at that bound (unresolved).

It also checks that the exact counts, which depend only on the code and
the seed, are equal for every seed both sets ran.  Exit status 0 means
every line is ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

EXACT = {
    False: ("store_bytes_per_case",),
    True: (
        "core.batched.relabel_expanded",
        "core.segstore.bytes_written",
        "core.query.case4_share",
        "core.query.hubs_per_case4_pair",
        "core.lazy.miss_frac",
    ),
}


def load_set(path: Path) -> List[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(path.rglob("*.json"))
        if not p.name.endswith(".trace.json")
    ]


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(qs) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = qs
    return (q3 - q1) / median if median else 0.0


def compare(a: List[dict], b: List[dict], spec: dict) -> List[str]:
    """Printable lines; a line not starting with ``ok`` is a disagreement."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    workloads = sorted({r["workload"] for r in a + b})
    for w in workloads:
        ra = [r for r in a if r["workload"] == w and not r["traced"]]
        rb = [r for r in b if r["workload"] == w and not r["traced"]]
        lines.append(f"{w}  (runs: {len(ra)} vs {len(rb)})")
        for name, m in bounds.items():
            va = [r["metrics"][name] for r in ra]
            vb = [r["metrics"][name] for r in rb]
            if not va or not vb:
                lines.append(f"FAIL  {name}: missing in one set")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            diff = abs(qb[1] - qa[1]) / qa[1] if qa[1] else float(qb[1] != qa[1])
            if diff > m["bound"]:
                verdict = "FAIL"
            elif max(spread(qa), spread(qb)) > m["bound"]:
                verdict = "WIDE"
            else:
                verdict = "ok  "
            lines.append(
                f"{verdict}  {name:22s}"
                f"  A {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] spread {spread(qa):.3f}"
                f"  B {qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] spread {spread(qb):.3f}"
                f"  diff {diff:.2%} (bound {m['bound']:.0%}, {m['unit']})"
            )
    lines.append("exact counts (same workload, seed and mode in both sets)")
    for traced, names in EXACT.items():
        seen: Dict[tuple, set] = {}
        for r in a + b:
            if r["traced"] != traced:
                continue
            for name in names:
                key = (r["workload"], r["seed"], name)
                seen.setdefault(key, set()).add(r["metrics"][name])
        for (w, seed, name), values in sorted(seen.items()):
            verdict = "ok  " if len(values) == 1 else "FAIL"
            lines.append(f"{verdict}  {w} seed {seed} {name}: {sorted(values)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    lines = compare(load_set(args.set_a), load_set(args.set_b), spec)
    print("\n".join(lines))
    failed = sum(line.startswith(("FAIL", "WIDE")) for line in lines)
    print(f"{'AGREE' if not failed else 'DISAGREE'}: {failed} disagreement(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
