"""Timing-model invariants checked on *real* workload traces.

The unit tests in test_simulator.py use synthetic traces; these use the
actual functional engine's output, so the invariants cover the record
shapes the engine really emits (strided tasks, exact restarts, recovery
episodes, master failures).
"""

import dataclasses

import pytest

from repro.config import SlaveFailure, TimingConfig
from repro.experiments import evaluate, prepare
from repro.timing import simulate_mssp
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def runs():
    results = {}
    for name in ("compress", "hashlookup"):
        prepared = prepare(get_workload(name), size=600)
        results[name] = evaluate(prepared).mssp
    return results


def cycles(result, **overrides):
    config = dataclasses.replace(TimingConfig(), **overrides)
    return simulate_mssp(result, config).total_cycles


class TestMonotonicity:
    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_more_slaves_never_slower(self, runs, name):
        result = runs[name]
        series = [cycles(result, n_slaves=n) for n in (1, 2, 4, 8, 16)]
        assert series == sorted(series, reverse=True)

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_faster_master_never_slower(self, runs, name):
        result = runs[name]
        fast = cycles(result, master_cpi=0.25)
        slow = cycles(result, master_cpi=1.0)
        assert fast <= slow

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_latency_scaling_monotone(self, runs, name):
        result = runs[name]
        base = TimingConfig()
        series = [
            simulate_mssp(result, base.scaled_latencies(s)).total_cycles
            for s in (0.0, 1.0, 2.0, 4.0)
        ]
        assert series == sorted(series)

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_load_penalty_monotone(self, runs, name):
        result = runs[name]
        series = [
            cycles(result, load_penalty=p) for p in (0.0, 0.5, 1.0, 2.0)
        ]
        assert series == sorted(series)

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_checkpoint_cost_monotone(self, runs, name):
        result = runs[name]
        series = [
            cycles(result, checkpoint_word_latency=c)
            for c in (0.0, 0.1, 0.5)
        ]
        assert series == sorted(series)


class TestAccounting:
    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_classification_covers_all_tasks(self, runs, name):
        result = runs[name]
        breakdown = simulate_mssp(result, TimingConfig())
        classified = (
            breakdown.master_bound_tasks
            + breakdown.slave_bound_tasks
            + breakdown.commit_bound_tasks
        )
        assert classified == (
            breakdown.committed_tasks + breakdown.squashed_tasks
        )
        assert breakdown.committed_tasks == result.counters.tasks_committed

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_total_cycles_bound_below_by_serial_master(self, runs, name):
        """The machine can never finish before the master's own work."""
        result = runs[name]
        breakdown = simulate_mssp(result, TimingConfig())
        master_work = result.counters.master_instrs * TimingConfig().master_cpi
        assert breakdown.total_cycles >= master_work

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_deterministic_replay(self, runs, name):
        result = runs[name]
        first = simulate_mssp(result, TimingConfig())
        second = simulate_mssp(result, TimingConfig())
        assert first.total_cycles == second.total_cycles
        assert first.summary() == second.summary()


class TestClusterKnobs:
    """Link channels, slave speeds and outages that cannot bind change
    nothing."""

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    @pytest.mark.parametrize("channels", [4, 7])
    def test_enough_link_channels_equal_unlimited(self, runs, name, channels):
        result = runs[name]
        base = TimingConfig(n_slaves=4, checkpoint_word_latency=0.5)
        bounded = dataclasses.replace(base, link_channels=channels)
        assert (
            simulate_mssp(result, bounded).summary()
            == simulate_mssp(result, base).summary()
        )

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_outage_after_the_run_changes_nothing(self, runs, name):
        result = runs[name]
        base = TimingConfig(n_slaves=4)
        plain = simulate_mssp(result, base)
        late = dataclasses.replace(base, failures=tuple(
            SlaveFailure(slot=slot, at=plain.total_cycles, downtime=1e6)
            for slot in range(base.n_slaves)
        ))
        assert simulate_mssp(result, late).summary() == plain.summary()

    @pytest.mark.parametrize("name", ["compress", "hashlookup"])
    def test_unit_speeds_equal_no_speeds(self, runs, name):
        result = runs[name]
        base = TimingConfig()
        unit = dataclasses.replace(
            base, slave_speeds=(1.0,) * base.n_slaves
        )
        plain = simulate_mssp(result, base, schedule=True)
        timed = simulate_mssp(result, unit, schedule=True)
        assert timed.summary() == plain.summary()
        assert timed.schedule == plain.schedule
