"""Squash-driven online re-distillation: triggering, hot swap, RT003.

The hot swap happens strictly between episodes, but under pipelined
backends in-flight tasks exist right up to the squash that precedes it —
the cross-runtime identity tests pin down that a mid-run master swap is
invisible to the bit-identity contract.
"""

import dataclasses

import pytest

from repro.analysis.checker import check_runtime_events
from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.distill.adaptive import (
    deassertion_observations,
    fold_observations,
    suppressed_block_writes,
)
from repro.errors import MsspError
from repro.experiments import evaluate, prepare
from repro.machine.interpreter import run_to_halt
from repro.mssp import MsspEngine
from repro.mssp.redistill import Redistiller
from repro.mssp.runtime.events import Redistilled, TaskSquashed
from repro.profiling import profile_program
from repro.workloads import get_workload

from tests.workloads.test_suite import SMALL_SIZES


def adaptive_engine(name, threshold=2, **config_kwargs):
    instance = get_workload(name).instance(SMALL_SIZES[name])
    profile = profile_program(instance.train_programs[0])
    distillation = Distiller(DistillConfig()).distill(
        instance.program, profile
    )
    config = MsspConfig(redistill_threshold=threshold, **config_kwargs)
    engine = MsspEngine(instance.program, distillation, config)
    engine.enable_adaptation(profile)
    return instance, engine


class TestRedistiller:
    def test_threshold_required(self):
        instance = get_workload("compress").instance(SMALL_SIZES["compress"])
        profile = profile_program(instance.train_programs[0])
        distillation = Distiller(DistillConfig()).distill(
            instance.program, profile
        )
        engine = MsspEngine(instance.program, distillation, MsspConfig())
        with pytest.raises(MsspError):
            Redistiller(engine, profile)
        assert engine.enable_adaptation(profile) is None

    def test_only_live_in_squashes_accumulate(self):
        instance, engine = adaptive_engine("compress", threshold=3)
        redistiller = engine.redistiller

        def squash(reason, origin):
            from repro.mssp.trace import TaskAttemptRecord

            record = TaskAttemptRecord(
                tid=1, start_pc=origin, end_pc=None, n_instrs=1,
                master_instrs=1, committed=False,
                squash_reason=reason, origin_pc=origin,
            )
            engine.events.emit(TaskSquashed(
                tid=1, reason=reason, record=record, mismatched_regs=(3,)
            ))

        squash("fault", 7)
        squash("wrong-start-pc", 7)
        assert redistiller.hot_region() is None
        squash("register-live-in", 7)
        squash("memory-live-in", 7)
        squash("register-live-in", 9)
        assert redistiller.hot_region() is None  # 2 + 1 < threshold 3
        squash("register-live-in", 7)
        assert redistiller.hot_region() == 7
        assert redistiller.mismatched_regs == {3}
        redistiller.reset()
        assert redistiller.hot_region() is None
        engine.close()

    def test_mispredict_triggers_real_redistillation(self):
        instance, engine = adaptive_engine("mispredict")
        result = engine.run()
        assert result.counters.redistillations >= 1
        reference = run_to_halt(instance.program)
        assert result.final_state.diff(reference.state) == []
        baseline = MsspEngine(
            instance.program, engine._initial_distillation, MsspConfig()
        ).run()
        assert (
            result.counters.tasks_squashed
            < baseline.counters.tasks_squashed
        )
        engine.close()

    def test_run_twice_is_deterministic(self):
        """reset() restores the pristine profile: two runs of the same
        engine adapt identically."""
        _, engine = adaptive_engine("mispredict")
        first = engine.run()
        second = engine.run()
        assert first == second
        engine.close()


class TestHotSwapUnderInFlightTasks:
    @pytest.mark.parametrize("runtime", ("eager", "process"))
    def test_identical_across_runtimes(self, runtime):
        prepared = prepare(
            get_workload("mispredict"), size=SMALL_SIZES["mispredict"]
        )
        eager = evaluate(
            prepared, mssp_config=MsspConfig().with_adaptation()
        )
        other = evaluate(
            prepared,
            mssp_config=dataclasses.replace(
                MsspConfig().with_adaptation(), runtime=runtime,
                parallel_chunk_tasks=3, max_inflight_tasks=8,
            ),
        )
        assert other.mssp == eager.mssp
        assert other.counters.redistillations >= 1

    @pytest.mark.parametrize("tier", ("decoded", "jit"))
    def test_identical_across_tiers(self, tier):
        prepared = prepare(
            get_workload("mispredict"), size=SMALL_SIZES["mispredict"]
        )
        reference = evaluate(
            prepared, mssp_config=MsspConfig().with_adaptation()
        )
        row = evaluate(
            prepared,
            mssp_config=dataclasses.replace(
                MsspConfig().with_adaptation(), exec_tier=tier
            ),
        )
        assert row.mssp == reference.mssp


class TestAdaptiveFolding:
    def test_suppressed_block_writes_stop_at_terminator(self):
        program = get_workload("mispredict").instance(64).program
        # Every block's write set excludes r0 and is finite.
        for pc in range(len(program.code)):
            writes = suppressed_block_writes(program, pc)
            assert 0 not in writes

    def test_deassertion_requires_evidence_overlap(self):
        program = get_workload("hashlookup").instance(300).program
        sites = [(11, False)]
        assert deassertion_observations(
            program, sites, frozenset()
        ) == []

    def test_fold_flips_branch_bias(self):
        instance = get_workload("hashlookup").instance(300)
        profile = profile_program(instance.train_programs[0])
        branch_pc = next(iter(profile.branches))
        before = profile.branches[branch_pc]
        rare_taken = before.taken <= before.not_taken
        folded = fold_observations(profile, [], [(branch_pc, rare_taken)])
        after = folded.branches[branch_pc]
        dominant = max(before.taken, before.not_taken)
        rare = after.taken if rare_taken else after.not_taken
        assert rare >= dominant


class TestRT003:
    def redistilled(self, region, threshold=2):
        return Redistilled(
            region=region, misses=threshold, threshold=threshold,
            despecialized=1, deasserted=0, generation=1,
        )

    def squash(self, origin, reason="register-live-in", tid=1):
        from repro.mssp.trace import TaskAttemptRecord

        record = TaskAttemptRecord(
            tid=tid, start_pc=origin, end_pc=None, n_instrs=1,
            master_instrs=1, committed=False, squash_reason=reason,
            origin_pc=origin,
        )
        return TaskSquashed(tid=tid, reason=reason, record=record)

    def test_clean_stream_passes(self):
        events = [
            self.squash(7), self.squash(7), self.redistilled(7),
        ]
        report = check_runtime_events(events)
        assert not [f for f in report.findings if f.check_id == "RT003"]

    def test_unjustified_redistillation_flagged(self):
        events = [self.squash(7), self.redistilled(7)]
        report = check_runtime_events(events)
        assert [f for f in report.findings if f.check_id == "RT003"]

    def test_wrong_region_evidence_flagged(self):
        events = [
            self.squash(9), self.squash(9), self.redistilled(7),
        ]
        report = check_runtime_events(events)
        assert [f for f in report.findings if f.check_id == "RT003"]

    def test_non_live_in_reasons_do_not_count(self):
        events = [
            self.squash(7, reason="fault"),
            self.squash(7, reason="fault"),
            self.redistilled(7),
        ]
        report = check_runtime_events(events)
        assert [f for f in report.findings if f.check_id == "RT003"]

    def test_counts_reset_after_swap(self):
        events = [
            self.squash(7), self.squash(7), self.redistilled(7),
            self.redistilled(7),  # no fresh evidence since the swap
        ]
        report = check_runtime_events(events)
        assert [f for f in report.findings if f.check_id == "RT003"]

    def test_real_adaptive_run_passes_rt003(self):
        from repro.analysis.checker import check_runtime_execution

        instance = get_workload("mispredict").instance(
            SMALL_SIZES["mispredict"]
        )
        profile = profile_program(instance.train_programs[0])
        distillation = Distiller(DistillConfig()).distill(
            instance.program, profile
        )
        report = check_runtime_execution(
            instance.program, distillation, profile=profile
        )
        assert report.ok
