"""Tests for the experiment harness (prepare/evaluate pipeline)."""

import dataclasses
import pickle

import pytest

from repro.config import (
    DistillConfig,
    MsspConfig,
    OOO_BASELINE,
    TimingConfig,
)
from repro.experiments import harness
from repro.experiments.harness import (
    RUN_LIMIT,
    distilled_dynamic_length,
    evaluate,
    parallel_map,
    prepare,
)
from repro.machine.interpreter import count_instructions_and_loads
from repro.mssp import create_engine
from repro.timing import speedup
from repro.workloads import WORKLOADS, get_workload


@pytest.fixture(scope="module")
def small_compress():
    return prepare(get_workload("compress"), size=500)


@pytest.fixture(scope="module")
def tenth_size():
    """Every workload prepared at a tenth of its default size."""
    return {
        name: prepare(spec, size=max(4, spec.default_size // 10))
        for name, spec in sorted(WORKLOADS.items())
    }


@pytest.fixture()
def count_spies(monkeypatch):
    """Count the calls of the two passes behind the lazy counts."""
    calls = {"count_instructions_and_loads": 0, "distilled_dynamic_length": 0}
    for name in calls:
        original = getattr(harness, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    return calls


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


class TestLazyCounts:
    def test_cold_episode_runs_neither_pass(self, count_spies):
        ready = prepare(get_workload("crc"), size=300)
        with create_engine(
            ready.instance.program, ready.distillation
        ) as engine:
            result = engine.run()
        assert speedup(result) > 0
        assert count_spies == {
            "count_instructions_and_loads": 0, "distilled_dynamic_length": 0,
        }

    def test_each_pass_runs_once_on_first_read(self, count_spies):
        ready = prepare(get_workload("crc"), size=300)
        first = (ready.seq_instrs, ready.seq_loads, ready.distilled_instrs)
        assert count_spies == {
            "count_instructions_and_loads": 1, "distilled_dynamic_length": 1,
        }
        again = (ready.seq_instrs, ready.seq_loads, ready.distilled_instrs)
        assert ready.distillation_ratio == first[2] / first[0]
        assert again == first
        assert count_spies == {
            "count_instructions_and_loads": 1, "distilled_dynamic_length": 1,
        }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_lazy_values_equal_direct_calls(self, tenth_size, name):
        ready = tenth_size[name]
        program = ready.instance.program
        assert (ready.seq_instrs, ready.seq_loads) == (
            count_instructions_and_loads(program, max_steps=RUN_LIMIT)
        )
        assert ready.distilled_instrs == distilled_dynamic_length(
            ready.distillation, program, max_steps=RUN_LIMIT
        )

    def test_counts_stay_out_of_equality_and_repr(self):
        ready = prepare(get_workload("crc"), size=300)
        unread = pickle.loads(pickle.dumps(ready))
        assert ready.seq_instrs > 0
        assert unread == ready
        assert "seq_instrs" not in repr(ready)

    def test_artifact_cache_round_trip(
        self, tmp_path, monkeypatch, count_spies
    ):
        """A cached prepared artifact gives the same counts whether they
        were read before it was pickled or after it was loaded."""
        from repro.experiments import bench, cache

        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        stored, hit = bench.cached_prepare("crc", size=12)
        assert not hit
        loaded, hit = bench.cached_prepare("crc", size=12)
        assert hit and loaded == stored
        counts = (stored.seq_instrs, stored.seq_loads, stored.distilled_instrs)
        assert (
            loaded.seq_instrs, loaded.seq_loads, loaded.distilled_instrs
        ) == counts

        def read_then_store():
            ready = prepare(get_workload("crc"), size=12)
            ready.distillation_ratio
            return ready

        _, hit = cache.fetch("prepared-read", "k", read_then_store)
        assert not hit
        before = dict(count_spies)
        read, hit = cache.fetch("prepared-read", "k", read_then_store)
        assert hit
        assert (
            read.seq_instrs, read.seq_loads, read.distilled_instrs
        ) == counts
        assert count_spies == before

    def test_step_limit_fires_at_first_read(self, monkeypatch):
        from repro.errors import StepLimitExceeded

        ready = prepare(get_workload("crc"), size=300)
        monkeypatch.setattr(harness, "RUN_LIMIT", 100)
        with pytest.raises(StepLimitExceeded):
            ready.seq_instrs
        with pytest.raises(StepLimitExceeded):
            ready.distilled_instrs


class TestDistilledCountTier:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_oracle_count_equals_decoded_count(
        self, tenth_size, name, monkeypatch
    ):
        from repro.mssp import master

        ready = tenth_size[name]
        program = ready.instance.program
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        fast = distilled_dynamic_length(ready.distillation, program)
        modes = []
        original = master.decode

        def spy(distilled, oracle=False):
            modes.append((distilled.code is ready.distillation.distilled.code,
                          oracle))
            return original(distilled, oracle=oracle)

        monkeypatch.setattr(master, "decode", spy)
        monkeypatch.setenv("REPRO_EXEC", "oracle")
        assert distilled_dynamic_length(ready.distillation, program) == fast
        assert modes == [(True, True)]


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
