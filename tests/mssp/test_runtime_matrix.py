"""Tier x runtime differential matrix over every workload.

The execution tier selects how master, slaves and recovery step a
program, and the runtime selects where slave tasks execute — neither
may change what the machine computes.  Every combination of tier
{decoded, jit} and runtime {eager, thread, process} must leave the whole
observable :class:`~repro.mssp.engine.MsspResult` bit-identical on every
workload, squash/recovery traffic included.  Each combination is built
by :func:`~repro.mssp.engine.create_engine` and first asserts that the
engine really runs the requested runtime.
"""

import pickle

import pytest

from repro.config import MsspConfig
from repro.experiments.harness import prepare
from repro.mssp import create_engine
from repro.mssp.faults import corrupt_live_in
from repro.mssp.master import Master
from repro.workloads import get_workload, workload_names

TIERS = ("decoded", "jit")
RUNTIMES = ("eager", "thread", "process")

_PREPARED = {}


def prepared(name):
    if name not in _PREPARED:
        spec = get_workload(name)
        _PREPARED[name] = prepare(spec, size=max(4, spec.default_size // 8))
    return _PREPARED[name]


def assert_identical(reference, candidate):
    assert candidate.records == reference.records
    assert candidate.counters == reference.counters
    assert candidate.device_trace == reference.device_trace
    assert candidate.halted == reference.halted
    assert candidate.final_state.pc == reference.final_state.pc
    assert candidate.final_state.diff(reference.final_state) == []


def run_combo(ready, tier, runtime):
    config = MsspConfig(exec_tier=tier, runtime=runtime, num_slaves=2)
    with create_engine(
        ready.instance.program, ready.distillation, config
    ) as engine:
        assert engine.runtime == runtime
        return engine.run()


@pytest.mark.parallel
class TestRuntimeMatrix:
    """tier x runtime: all six combinations agree, per workload."""

    @pytest.mark.parametrize("name", workload_names())
    def test_full_matrix_bit_identical(self, name):
        ready = prepared(name)
        reference = run_combo(ready, "decoded", "eager")
        for tier in TIERS:
            for runtime in RUNTIMES:
                if (tier, runtime) != ("decoded", "eager"):
                    assert_identical(
                        reference, run_combo(ready, tier, runtime)
                    )


class TestForcedSquash:
    def test_forced_squash_under_master_jit(self, monkeypatch):
        """Squash + recovery write architected state through the
        non-speculative path (and bulk-invalidate the verify stamps);
        with the squash landing in a run whose jit-tier master executes
        generated code, the result must match the decoded reference
        (captured masters prove both the restart and the coverage)."""
        ready = prepared("fib_memo")

        def run(tier):
            engine = create_engine(
                ready.instance.program, ready.distillation,
                MsspConfig(exec_tier=tier, runtime="eager"),
            )
            engine.events.subscribe(corrupt_live_in(3))
            return engine.run()

        reference = run("decoded")
        captured = []

        class CapturingMaster(Master):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self)

        monkeypatch.setattr("repro.mssp.engine.Master", CapturingMaster)
        jit = run("jit")
        assert reference.counters.tasks_squashed > 0
        assert_identical(reference, jit)
        assert captured
        for master in captured:
            assert master.jit_instrs > 0  # generated code really ran
            assert master.restarts > 1    # ... and the squash reseeded it


class TestStatePickling:
    def test_final_state_round_trips(self):
        state = run_combo(prepared("compress"), "jit", "eager").final_state
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert clone.diff(state) == []
