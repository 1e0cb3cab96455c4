"""Tests for the experiment harness (prepare/evaluate pipeline)."""

import dataclasses

import pytest

from repro.config import (
    DistillConfig,
    MsspConfig,
    OOO_BASELINE,
    TimingConfig,
)
from repro.experiments.harness import (
    distilled_dynamic_length,
    evaluate,
    parallel_map,
    prepare,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_compress():
    return prepare(get_workload("compress"), size=500)


class TestPrepare:
    def test_fields_consistent(self, small_compress):
        ready = small_compress
        assert ready.name == "compress"
        assert ready.seq_instrs > 0
        assert ready.distilled_instrs > 0
        assert ready.distillation_ratio == pytest.approx(
            ready.distilled_instrs / ready.seq_instrs
        )

    def test_profile_comes_from_training_inputs(self, small_compress):
        """The profile's totals reflect two training runs, not the eval."""
        profile = small_compress.profile
        assert profile.total_instructions > small_compress.seq_instrs

    def test_custom_distill_config(self):
        coarse = prepare(
            get_workload("compress"), size=500,
            distill_config=DistillConfig(target_task_size=400),
        )
        fine = prepare(
            get_workload("compress"), size=500,
            distill_config=DistillConfig(target_task_size=25),
        )
        assert coarse.distillation.report.expected_task_size > (
            fine.distillation.report.expected_task_size
        )

    def test_distilled_dynamic_length_standalone(self, small_compress):
        length = distilled_dynamic_length(
            small_compress.distillation, small_compress.instance.program
        )
        assert length == small_compress.distilled_instrs


class TestEvaluate:
    def test_checks_equivalence_by_default(self, small_compress):
        row = evaluate(small_compress)
        assert row.counters.total_instrs == small_compress.seq_instrs
        assert row.speedup > 0

    def test_summary_fields(self, small_compress):
        row = evaluate(small_compress)
        summary = row.summary()
        assert summary["speedup"] == pytest.approx(row.speedup)
        assert summary["cycles"] == row.breakdown.total_cycles
        assert "squash_rate" in summary

    def test_baseline_selection(self, small_compress):
        inorder = evaluate(small_compress)
        ooo = evaluate(small_compress, baseline=OOO_BASELINE)
        assert ooo.speedup == pytest.approx(
            inorder.speedup * OOO_BASELINE.cpi
        )

    def test_timing_config_respected(self, small_compress):
        slow = evaluate(
            small_compress,
            timing_config=dataclasses.replace(TimingConfig(), n_slaves=1),
        )
        fast = evaluate(
            small_compress,
            timing_config=dataclasses.replace(TimingConfig(), n_slaves=8),
        )
        assert fast.speedup > slow.speedup

    def test_mssp_config_respected(self, small_compress):
        row = evaluate(
            small_compress,
            mssp_config=MsspConfig(max_task_instrs=5),
        )
        # Tiny task budget forces overruns yet equivalence still verified.
        assert row.counters.squash_reasons.get("overrun", 0) > 0

    def test_check_disabled_still_runs(self, small_compress):
        row = evaluate(small_compress, check=False)
        assert row.counters.tasks_committed > 0

    def test_parallel_runtime_matches_eager(self, small_compress):
        eager = evaluate(small_compress)
        process = evaluate(
            small_compress,
            mssp_config=MsspConfig(runtime="process", num_slaves=2),
        )
        assert process.mssp.records == eager.mssp.records
        assert process.mssp.counters == eager.mssp.counters
        assert process.speedup == pytest.approx(eager.speedup)


def _double(x):
    return 2 * x


class TestParallelMap:
    def test_serial_when_jobs_one(self):
        # A lambda is unpicklable; jobs<=1 must not require a pool.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], jobs=1) == [2, 3, 4]

    def test_pool_path(self):
        assert parallel_map(_double, [1, 2, 3, 4], jobs=2) == [2, 4, 6, 8]

    def test_falls_back_to_serial_when_pool_unavailable(self, monkeypatch):
        import concurrent.futures

        class Unstartable:
            def __init__(self, *args, **kwargs):
                raise OSError("subprocesses forbidden")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", Unstartable
        )
        assert parallel_map(_double, [1, 2, 3], jobs=4) == [2, 4, 6]

    def test_single_item_runs_inline(self):
        assert parallel_map(lambda x: x * x, [7], jobs=8) == [49]
