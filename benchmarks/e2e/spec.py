"""Where the benchmark lives and what it declares."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything a run writes goes under here (ignored by git).
OUT = HERE / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_layers() -> dict:
    """``layers.json``: each per-layer metric's layer module, the
    ``metric@workload`` pairs it should move, and whether it is a
    deterministic count."""
    return json.loads((HERE / "layers.json").read_text())
