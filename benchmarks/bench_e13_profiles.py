"""E13 — profile-quality sensitivity (the train/ref methodology).

The paper distills with *training* inputs and evaluates on *reference*
inputs; this experiment quantifies how much that methodology matters by
distilling each workload three ways:

* **single** — profile from one training input (value specialization
  can latch onto input-specific accidents);
* **train** — the default: two training inputs merged;
* **oracle** — profile the evaluation input itself (self-profiling:
  the ceiling for any profile-driven distiller).

Expected shape: live-in accuracy and speedup are ordered
single ≤ train ≤ oracle, with the gaps concentrated in the workloads
whose behaviour drifts across inputs (hashlookup, fib_memo); the
bias/cold structure of the others is input-stable, so their three
columns coincide — which is itself the finding that makes profile-guided
distillation viable.
"""

from repro.experiments import evaluate, prepare
from repro.stats import Table, geomean, mean
from repro.workloads import get_workload

from benchmarks.common import PAPER_DISTILL, bench_size, report, run_once

SUBJECTS = ("hashlookup", "fib_memo", "compress", "crc", "stringops")
SOURCES = ("single", "train", "eval")
LABELS = {"single": "single", "train": "train (default)", "eval": "oracle"}
SWEEP_SCALE = 0.5


def run_e13():
    table = Table(
        ["benchmark"]
        + [f"{LABELS[s]} squash" for s in SOURCES]
        + [f"{LABELS[s]} speedup" for s in SOURCES],
        title="E13: distillation profile quality (train/ref methodology)",
    )
    squash = {s: [] for s in SOURCES}
    speed = {s: [] for s in SOURCES}
    for name in SUBJECTS:
        size = bench_size(name, scale=SWEEP_SCALE)
        row_cells = []
        for source in SOURCES:
            prepared = prepare(
                get_workload(name), size=size,
                distill_config=PAPER_DISTILL, profile_source=source,
            )
            row = evaluate(prepared)
            squash[source].append(row.counters.squash_rate)
            speed[source].append(row.speedup)
        table.add_row(
            name,
            *[squash[s][-1] for s in SOURCES],
            *[speed[s][-1] for s in SOURCES],
        )
    table.add_row(
        "mean/geomean",
        *[mean(squash[s]) for s in SOURCES],
        *[geomean(speed[s]) for s in SOURCES],
    )
    return table, squash, speed


def test_e13_profiles(benchmark):
    table, squash, speed = run_once(benchmark, run_e13)
    report("e13_profiles", table)
    # Methodology ordering: better profiles never squash more on average.
    assert mean(squash["eval"]) <= mean(squash["train"]) + 1e-9
    assert mean(squash["train"]) <= mean(squash["single"]) + 1e-9
    # The oracle profile has (near-)zero squashes: all residual
    # misprediction in the default setup is train/ref divergence.
    assert mean(squash["eval"]) < 0.005
    # And speedup follows the same ordering.
    assert geomean(speed["train"]) >= geomean(speed["single"]) - 1e-9
    # The quasi-constant trap: crc's per-input salt looks stable to a
    # single-input profile (catastrophic specialization), and the
    # two-input discipline catches it completely.
    crc_index = SUBJECTS.index("crc")
    assert squash["single"][crc_index] > 0.2
    assert squash["train"][crc_index] == 0.0
