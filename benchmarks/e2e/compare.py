"""Compare two sets of benchmark runs: a parent commit and a change.

``python -m benchmarks.e2e compare A.json [A2.json ...] -- B.json ...``
reads files written by ``python -m benchmarks.e2e run``.  For every
workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

* ``better`` — with at least ``MIN_PAIRS`` pairs of runs (the i-th
  parent file with the i-th change file), the change wins nine tenths of
  the pairs and the medians differ by more than the parent's own
  quartile spread;
* ``unresolved`` — otherwise, when the parent's spread is wider than the
  metric's bound, unless every change run beats every parent run: noise
  this large can hide a regression;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``same`` — anything else.

A failed op in any run, or a difference in ``sim_speedup`` or a
deterministic per-layer count between runs of one seed, is an error.
The exit status is 1 when any verdict is ``worse`` or any error occurs.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence, Tuple

from .spec import load_layers, load_spec
from .stats import quartiles

#: End-to-end metrics that are deterministic for a given seed.
EXACT = ("sim_speedup",)
#: A gain needs at least this many parent/change pairs of runs
#: (choosing-metrics guide, section 8).
MIN_PAIRS = 10


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str,
    bound: float,
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - median) / median
    spread = (q3 - q1) / median
    pairs = min(len(parent), len(change))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gain > spread:
        return "better"
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not dominates:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "same"


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs if workload in run["workloads"]
    ]


def exactness_errors(runs: List[dict], names: Sequence[str]) -> List[str]:
    """Metrics in ``names`` that differ between runs of one seed."""
    seen: Dict[Tuple[int, str, str], set] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for name in names:
                metric = result["metrics"].get(name)
                if metric is not None:
                    key = (run["seed"], workload, name)
                    seen.setdefault(key, set()).add(metric["value"])
    return [
        f"{workload}: {name} differs between runs at seed {seed}: "
        f"{sorted(values)}"
        for (seed, workload, name), values in sorted(seen.items())
        if len(values) > 1
    ]


def compare(
    parent: List[dict], change: List[dict]
) -> Tuple[List[list], List[str]]:
    """Verdict rows for every workload × end-to-end metric, and errors."""
    spec = load_spec()
    rows = []
    errors = []
    for run in parent + change:
        for name, result in run["workloads"].items():
            if result["failed"]:
                errors.append(
                    f"{name}: {result['failed']} of {result['attempted']} "
                    f"ops failed in a run at seed {run['seed']}"
                )
    untraced = ([r for r in parent if not r["traced"]],
                [r for r in change if not r["traced"]])
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = _values(untraced[0], workload, metric["name"])
            b = _values(untraced[1], workload, metric["name"])
            if not a or not b:
                continue
            rows.append([
                workload, metric["name"], metric["unit"],
                quartiles(a), quartiles(b),
                verdict(a, b, metric["better"], metric["bound"]),
            ])
    deterministic = [
        name for name, meta in load_layers().items() if meta["deterministic"]
    ]
    errors += exactness_errors(parent + change, EXACT + tuple(deterministic))
    return rows, errors


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Sequence[str]) -> int:
    argv = list(argv)
    if "--" not in argv:
        print("usage: compare A.json [A2.json ...] -- B.json [B2.json ...]",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = argv[:split], argv[split + 1:]
    if not sides[0] or not sides[1]:
        print("compare needs at least one file on each side", file=sys.stderr)
        return 2
    parent, change = (
        [json.loads(open(path).read()) for path in paths] for paths in sides
    )
    rows, errors = compare(parent, change)
    print(f"{'workload':9} {'metric':17} {'unit':8} "
          f"{'parent median [q1, q3]':32} {'change median [q1, q3]':32} "
          f"verdict")
    for workload, metric, unit, a, b, outcome in rows:
        print(f"{workload:9} {metric:17} {unit:8} {_fmt(a):32} "
              f"{_fmt(b):32} {outcome}")
    for error in errors:
        print(f"error: {error}")
    worse = any(row[-1] == "worse" for row in rows)
    return 1 if worse or errors else 0
