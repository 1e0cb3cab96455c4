"""Tier x runtime differential matrix over every workload.

The execution tier selects how master, slaves and recovery step a
program, and the runtime selects where slave tasks execute — neither
may change what the machine computes.  Every combination of tier
{decoded, jit} and runtime {eager, process} must leave the whole
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
RUNTIMES = ("eager", "process")

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


@pytest.mark.parallel
class TestProcessAtDefaultSize:
    """Default sizes are the ones that fill a pool socket: the 1/8
    sizes above never abandon enough replies to block a pipe."""

    @pytest.mark.parametrize("name", workload_names())
    def test_process_bit_identical_at_default_size(self, name):
        ready = prepare(get_workload(name))
        program, distillation = ready.instance.program, ready.distillation
        reference = create_engine(
            program, distillation, MsspConfig(runtime="eager")
        ).run()
        for workers in (2, 4):
            config = MsspConfig(runtime="process", num_slaves=workers)
            with create_engine(program, distillation, config) as engine:
                candidate = engine.run()
            assert_identical(reference, candidate)
            assert candidate.counters.dispatch.adopted > 0


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


class TestJitCompilesOnlyTheMaster:
    """Slaves and recovery run the decoded chains on the jit tier, so a
    jit episode compiles superblocks for the master alone."""

    @pytest.mark.parametrize("runtime", (
        "eager", pytest.param("process", marks=pytest.mark.parallel),
    ))
    def test_jit_episode_compiles_nothing_on_the_original(self, runtime):
        ready = prepared("mispredict")
        # Fresh program objects: pickling drops the decode and JIT
        # attachments that preparing the workload left behind.
        program = pickle.loads(pickle.dumps(ready.instance.program))
        distillation = pickle.loads(pickle.dumps(ready.distillation))
        config = MsspConfig(exec_tier="jit", runtime=runtime, num_slaves=1)
        with create_engine(program, distillation, config) as engine:
            assert engine.runtime == runtime
            result = engine.run()
        assert result.counters.recovery_episodes > 0
        assert "_jit_cache" not in program.__dict__
        attached = distillation.distilled.__dict__["_jit_cache"]
        assert [jp.mode for jp in attached.values()] == ["master"]


class TestStatePickling:
    def test_final_state_round_trips(self):
        state = run_combo(prepared("compress"), "jit", "eager").final_state
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert clone.diff(state) == []
