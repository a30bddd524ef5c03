"""Compare two result sets of the benchmark against its own bounds.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_slo --seed 1 --out base.jsonl
    ...                                            # more runs, both sides
    python3 perfbench/compare.py base.jsonl new.jsonl

A result set is a file of run records, one JSON object a line, as
``run.py --out`` appends them.  For every workload and end-to-end metric
of ``BENCHMARK.json`` the command prints both medians, both quartile
spreads (interquartile range over the median) and the change, and says
``agree`` when the new median is within the metric's bound of the base
median in either direction, ``worse`` or ``better`` otherwise.  Traced
records are compared count by count: deterministic per-layer counts must
repeat exactly for the same seed and source digest.  Exit status 0 means
every pair agrees, 1 that some pair does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from layertrace import is_count

HERE = Path(__file__).resolve().parent


def load(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare_end_to_end(base: list, new: list, metrics: list) -> list:
    """Rows of (workload, metric, base median, new median, change, base
    spread, new spread, verdict)."""
    grouped = defaultdict(lambda: ([], []))
    for side, records in ((0, base), (1, new)):
        for record in records:
            if record["trace"] == 0:
                grouped[record["workload"]][side].append(record)
    rows = []
    for workload in sorted(grouped):
        base_runs, new_runs = grouped[workload]
        if not base_runs or not new_runs:
            rows.append((workload, "*", None, None, None, 0.0, 0.0, "missing"))
            continue
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            a = [run["metrics"][name] for run in base_runs]
            b = [run["metrics"][name] for run in new_runs]
            a_med, b_med = statistics.median(a), statistics.median(b)
            change = (b_med - a_med) / a_med if a_med else 0.0
            worse = change if spec["better"] == "lower" else -change
            if abs(change) <= bound:
                verdict = "agree"
            else:
                verdict = "worse" if worse > 0 else "better"
            rows.append((workload, name, a_med, b_med, change, spread(a), spread(b), verdict))
    return rows


def compare_counts(base: list, new: list) -> list:
    """Per-layer counts that differ between traced runs of the same seed."""
    def index(records):
        table = {}
        for record in records:
            if record["trace"] == 1:
                table[(record["workload"], record["seed"])] = record["metrics"]
        return table

    first, second = index(base), index(new)
    changed = []
    for key in sorted(set(first) & set(second)):
        for name, value in sorted(first[key].items()):
            if is_count(name) and second[key].get(name) != value:
                changed.append((key[0], key[1], name, value, second[key].get(name)))
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)

    if len({record["host"]["cpu_model"] for record in base + new}) > 1:
        print("note: the result sets come from different CPU models")

    ok = True
    print(f"{'workload':<16} {'metric':<16} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>13}  verdict")
    for workload, name, a, b, change, sa, sb, verdict in compare_end_to_end(
        base, new, spec["end_to_end"]
    ):
        ok &= verdict == "agree"
        if a is None:
            print(f"{workload:<16} {name:<16} {'-':>12} {'-':>12} {'-':>8} {'-':>13}  {verdict}")
            continue
        print(f"{workload:<16} {name:<16} {a:>12.5g} {b:>12.5g} {change:>+8.1%} "
              f"{sa:>6.1%}/{sb:>5.1%}  {verdict}")
    for workload, seed, name, a, b in compare_counts(base, new):
        ok = False
        print(f"count changed: {workload} seed {seed} {name}: {a} -> {b}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
