"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e.compare import exactness_errors, verdict
from benchmarks.e2e.spec import ROOT, load_layers, load_spec
from benchmarks.e2e.speed import REFERENCE, calibrate, reference_factor
from benchmarks.e2e.stats import nearest_rank, quartiles

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e import bench  # noqa: E402  (needs src on the path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class TestSchema:
    def test_top_level_keys(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert SPEC["paths"] == ["benchmarks/e2e"]
        assert 1 <= SPEC["run_seconds"] <= 60
        assert isinstance(SPEC["run_seconds"], int)

    def test_workloads(self):
        assert 2 <= len(WORKLOADS) <= 8
        assert WORKLOADS == list(bench.WORKLOADS)
        for workload in SPEC["workloads"]:
            assert set(workload) == {"name", "why"}
            assert 0 < len(workload["why"]) <= 200
            assert "\n" not in workload["why"]

    def test_metrics(self):
        assert 1 <= len(END_TO_END) <= 16
        assert 1 <= len(PER_LAYER) <= 128
        names = WORKLOADS + END_TO_END + PER_LAYER
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert bounds["setup_s"] == max(bounds.values())

    def test_layer_map(self):
        layers = load_layers()
        assert list(layers) == PER_LAYER
        for name, meta in layers.items():
            assert meta["layer"].split(".")[0] in ("repro", "benchmarks")
            assert isinstance(meta["deterministic"], bool)
            for pair in meta["moves"]:
                metric, workload = pair.split("@")
                assert metric in END_TO_END and workload in WORKLOADS, pair


class TestNearestRank:
    def test_values(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 0.5) == 50
        assert nearest_rank(values, 0.9) == 90
        assert nearest_rank(values, 1.0, min_beyond=0) == 100

    def test_guard_needs_ten_samples_beyond(self):
        with pytest.raises(ValueError, match="beyond"):
            nearest_rank(list(range(99)), 0.9)
        assert nearest_rank(list(range(99)), 0.9, min_beyond=9) == 89

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)


class TestVerdict:
    def test_within_bound_is_same(self):
        assert verdict([100, 101, 102], [110, 112], "lower", 0.25) == "same"

    def test_beyond_bound_is_worse(self):
        assert verdict([100, 101, 102], [130, 132], "lower", 0.25) == "worse"

    def test_gain_needs_ten_pairs_won_nine_times_in_ten(self):
        parent = [100 + i for i in range(10)]
        change = [120 + i for i in range(10)]
        assert verdict(parent, change, "higher", 0.25) == "better"
        # Two runs a side cannot show a gain, however far apart.
        assert verdict([10, 11], [15, 16], "higher", 0.25) == "same"
        # Two of ten pairs lost.
        change[:2] = [90, 90]
        assert verdict(parent, change, "higher", 0.25) == "same"

    def test_spread_wider_than_bound_is_unresolved(self):
        assert verdict([50, 100, 150], [100, 100, 100], "lower", 0.25) == (
            "unresolved"
        )
        # ... unless every change run beats every parent run.
        assert verdict([100, 200, 300], [50, 50, 50], "lower", 0.25) == (
            "same"
        )

    def test_two_runs_a_side_spread_stays_within_the_data(self):
        q1, median, q3 = quartiles([100, 117])
        assert 100 <= q1 <= median <= q3 <= 117
        # Two parent runs 17% apart are not a 25% spread.
        assert verdict([100, 117], [108, 109], "lower", 0.2) == "same"

    def test_differing_deterministic_metric_is_an_error(self):
        def run(value):
            return {"seed": 0, "workloads": {"steady": {
                "metrics": {"sim_speedup": {"value": value, "unit": "x"}}
            }}}

        assert exactness_errors([run(2.5), run(2.5)], ["sim_speedup"]) == []
        assert exactness_errors([run(2.5), run(2.6)], ["sim_speedup"])


def test_times_are_scaled_to_the_reference_speed():
    assert calibrate() > 0
    assert reference_factor(REFERENCE, REFERENCE) == 1.0
    # Calibrations averaging twice the reference time halve a time.
    assert reference_factor(REFERENCE, 3 * REFERENCE) == pytest.approx(0.5)


def test_attribution_sums_to_the_episode_wall():
    from repro.experiments import prepare
    from repro.mssp import create_engine
    from repro.workloads import get_workload

    ready = prepare(get_workload("compress"))
    with create_engine(ready.instance.program, ready.distillation) as engine:
        engine.run()  # warm-up, as in every measured phase
        traces = []
        bench.run_episode(engine, traces)
    trace = traces[0]
    unattributed = trace.unattributed / trace.wall
    assert trace.attributed() + trace.unattributed == pytest.approx(
        trace.wall, rel=1e-9
    )
    assert unattributed < 0.10
    for layer in ("mssp.master.ms", "mssp.slave.ms", "mssp.verify.ms"):
        assert trace.seconds[layer] > 0
    assert trace.seconds["mssp.recovery.ms"] == 0.0
    assert trace.events > 0


def test_corrupted_result_counts_as_failure():
    workload = bench.WORKLOADS["steady"]
    session = bench.open_session(workload, 0, bench.QUICK_SCALE)
    try:
        poisoned = []

        def corrupt(event):
            # Verify checks live-ins only, so a poisoned live-out of the
            # halting task commits and the final state goes wrong.
            if (event.kind == "task_executed" and event.task.final
                    and not poisoned):
                event.task.live_out_mem[0x9000] = -1
                poisoned.append(event.task.tid)

        session.subjects[0].engine.events.subscribe(corrupt)
        phase = bench.measure_closed(
            bench.warm_op(session), 0.0, 4, False, len(workload.programs)
        )
        assert poisoned
        assert (phase.attempted, phase.failed) == (4, 1)
    finally:
        session.close()


def test_serve_references_are_computed_at_setup(monkeypatch):
    session = bench.open_session(
        bench.WORKLOADS["serve"], 0, bench.QUICK_SCALE
    )
    try:
        assert all(s.reference is not None for s in session.subjects)

        def forbidden(*args, **kwargs):
            raise AssertionError("run_to_halt inside the measured phase")

        monkeypatch.setattr(bench, "run_to_halt", forbidden)
        phase = bench.measure_serve(session, 0.0, 6)
        assert phase.attempted >= 6 and phase.failed == 0
    finally:
        session.close()


@pytest.mark.parametrize("traced", [False, True])
def test_quick_run_reports_exactly_the_declared_metrics(tmp_path, traced):
    out = tmp_path / "run.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run", "--quick",
        "--seconds", "0.2", "--out", str(out),
    ]
    if traced:
        command.append("--traced")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == WORKLOADS
    expected = PER_LAYER if traced else END_TO_END
    for name, result in record["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert list(result["metrics"]) == expected, name
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
    for name in expected:
        assert name in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in (ROOT / "benchmarks" / "e2e").glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
