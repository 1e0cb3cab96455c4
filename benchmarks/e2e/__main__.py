"""``python -m benchmarks.e2e run|compare`` (see README.md).

``run`` measures every workload, each in its own fresh process, one at a
time, writes one JSON file under ``benchmarks/e2e/out/`` and prints every
metric by name with its unit.  ``compare`` judges two sets of such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import compare
from .spec import HERE, OUT, ROOT, load_spec

#: A workload's process is killed (and the run fails) after this long.
WORKLOAD_TIMEOUT = 600


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(
    workload: str, seed: int, seconds: float, traced: bool, quick: bool
) -> dict:
    """One workload in a fresh process; its final JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]
    if quick:
        command.append("--quick")
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKLOAD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def run_all(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    start = time.perf_counter()
    results: Dict[str, dict] = {}
    for name in names:
        print(f"{name} ...", file=sys.stderr, flush=True)
        results[name] = run_one(
            name, args.seed, seconds, args.traced, args.quick
        )
    record = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "traced": args.traced,
        "quick": args.quick,
        "run_seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "workloads": results,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    kind = "traced" if args.traced else "e2e"
    name = f"{kind}-{record['commit']}-s{args.seed}-{stamp}.json"
    path = args.out or OUT / name
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print_table(record)
    print(f"wrote {path}")
    failed = sum(r["failed"] for r in results.values())
    return 1 if failed else 0


def print_table(record: dict) -> None:
    results = record["workloads"]
    names = list(results)
    first = next(iter(results.values()))["metrics"]
    print(f"{'metric':26} {'unit':9} " + " ".join(f"{n:>12}" for n in names))
    for metric, meta in first.items():
        cells = " ".join(
            f"{results[n]['metrics'][metric]['value']:12.5g}" for n in names
        )
        print(f"{metric:26} {meta['unit']:9} {cells}")
    for label, key in (("ops", "attempted"), ("failed", "failed")):
        print(f"{label:26} {'count':9} "
              + " ".join(f"{results[n][key]:12d}" for n in names))
    print(f"{'fail_frac':26} {'fraction':9} " + " ".join(
        f"{results[n]['failed'] / results[n]['attempted']:12.5g}"
        for n in names
    ))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload once")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--traced", action="store_true",
                     help="report the per-layer metrics instead")
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes and op counts (smoke test)")
    run.add_argument("--seconds", type=float,
                     help="measured seconds per workload "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--out", help="result file (default: under out/)")
    sub.add_parser("compare", help="A.json ... -- B.json ...")
    return run_all(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
