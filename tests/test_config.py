"""Validation tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    PAPER_TASK_SIZE,
    BaselineConfig,
    DistillConfig,
    MsspConfig,
    OOO_BASELINE,
    SEQUENTIAL_BASELINE,
    TimingConfig,
)
from repro.errors import DistillError, TimingError
from repro.mssp.runtime.events import ResultAdopted, TaskExecuted, TaskForked


class TestDistillConfig:
    def test_defaults_valid(self):
        DistillConfig()

    def test_task_size_default_and_paper_figure(self):
        """The engine distills 300-instruction tasks; the tables that
        reproduce the paper keep its 150."""
        assert DistillConfig().target_task_size == 300
        assert PAPER_TASK_SIZE == 150

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_task_size": 1},
            {"branch_bias_threshold": 0.4},
            {"branch_bias_threshold": 1.1},
            {"cold_threshold": -0.1},
            {"cold_threshold": 1.0},
            {"max_anchors": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DistillError):
            DistillConfig(**kwargs)

    def test_without_pass_round_trip(self):
        config = DistillConfig()
        for name in ("branch_removal", "cold_code", "value_spec", "dce",
                     "jump_threading"):
            variant = config.without_pass(name)
            assert getattr(variant, f"enable_{name}") is False
            # Original untouched (frozen semantics).
            assert getattr(config, f"enable_{name}") is True

    def test_without_pass_unknown(self):
        with pytest.raises(DistillError):
            DistillConfig().without_pass("inlining")

    def test_hashable_for_caching(self):
        assert hash(DistillConfig()) == hash(DistillConfig())


class TestMsspConfig:
    def test_defaults_valid(self):
        config = MsspConfig()
        assert config.throttle_threshold is None
        assert config.checkpoint_mode == "cumulative"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_task_instrs": 0},
            {"max_master_instrs_per_task": 0},
            {"recovery_max_instrs": 0},
            {"max_total_instrs": 0},
            {"throttle_window": 0},
            {"throttle_chunk": 0},
            {"throttle_threshold": 0.0},
            {"throttle_threshold": 1.01},
            {"checkpoint_mode": "bogus"},
            {"runtime": "warp"},
            {"runtime": "inline"},
            {"runtime": "parallel"},
            {"runtime": "sim"},
            {"runtime": "thread"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MsspConfig(**kwargs)

    def test_delta_mode_accepted(self):
        assert MsspConfig(checkpoint_mode="delta").checkpoint_mode == "delta"

    def test_runtime_choices_accepted(self):
        for runtime in (None, "eager", "process"):
            assert MsspConfig(runtime=runtime).runtime == runtime

    def test_protected_regions_stored(self):
        config = MsspConfig(protected_regions=((1, 2), (5, 9)))
        assert config.protected_regions == ((1, 2), (5, 9))


class TestTimingConfig:
    def test_defaults_valid(self):
        TimingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_slaves": 0},
            {"master_cpi": 0.0},
            {"slave_cpi": -1.0},
            {"spawn_latency": -1.0},
            {"commit_latency": -0.5},
            {"squash_penalty": -1.0},
            {"restart_latency": -1.0},
            {"checkpoint_word_latency": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(TimingError):
            TimingConfig(**kwargs)

    def test_scaled_latencies(self):
        base = TimingConfig(
            spawn_latency=10, commit_latency=4, squash_penalty=6,
            restart_latency=2, checkpoint_word_latency=0.5,
        )
        doubled = base.scaled_latencies(2.0)
        assert doubled.spawn_latency == 20
        assert doubled.commit_latency == 8
        assert doubled.squash_penalty == 12
        assert doubled.restart_latency == 4
        assert doubled.checkpoint_word_latency == 1.0
        # Non-latency fields unchanged.
        assert doubled.n_slaves == base.n_slaves
        assert doubled.master_cpi == base.master_cpi

    def test_scaled_latencies_rejects_negative(self):
        with pytest.raises(TimingError):
            TimingConfig().scaled_latencies(-1.0)

    def test_zero_scale_is_free_interconnect(self):
        free = TimingConfig().scaled_latencies(0.0)
        assert free.spawn_latency == 0.0
        assert free.commit_latency == 0.0


class TestTimingPricing:
    def test_master_cheaper_than_slave(self):
        timing = TimingConfig()
        assert timing.master_time(100) < timing.slave_time(100)

    def test_loads_priced_on_both_sides(self):
        timing = TimingConfig(load_penalty=2.0)
        assert timing.master_time(10, 3) == 10 * 0.5 + 6.0
        assert timing.slave_time(10, 3) == 10 * 1.0 + 6.0

    def test_transfer_scales_with_checkpoint(self):
        timing = TimingConfig(checkpoint_word_latency=2.0, spawn_latency=10.0)
        assert timing.transfer_time(0) == 10.0
        assert timing.transfer_time(5) == 20.0

    def test_calibrate_fits_measured_rate(self):
        events = [
            TaskExecuted(task=_FakeTask(1000), cost=2e-3),
            TaskExecuted(task=_FakeTask(1000), cost=2e-3),
        ]
        timing = TimingConfig.calibrate(events)
        assert timing.slave_cpi == pytest.approx(2e-6)
        # The whole model scales together: ratios are preserved.
        base = TimingConfig()
        for name in ("master_cpi", "commit_latency", "squash_penalty",
                     "spawn_latency", "restart_latency"):
            assert getattr(timing, name) / timing.slave_cpi == pytest.approx(
                getattr(base, name) / base.slave_cpi
            )
        assert timing.n_slaves == base.n_slaves

    def test_calibrate_ignores_other_kinds(self):
        events = [
            TaskForked(tid=0, start_pc=0, end_pc=None),
            ResultAdopted(tid=0, cost=5e-3),
            TaskExecuted(task=_FakeTask(500), cost=1e-3),
        ]
        timing = TimingConfig.calibrate(events)
        assert timing.slave_cpi == pytest.approx(2e-6)

    def test_calibrate_rejects_unmeasured_trace(self):
        with pytest.raises(ValueError):
            TimingConfig.calibrate(
                [TaskForked(tid=0, start_pc=0, end_pc=None)]
            )


class _FakeTask:
    def __init__(self, n_instrs):
        self.n_instrs = n_instrs
        self.n_loads = 0


class TestBaselines:
    def test_builtin_baselines(self):
        assert SEQUENTIAL_BASELINE.cpi == 1.0
        assert OOO_BASELINE.cpi < SEQUENTIAL_BASELINE.cpi

    def test_rejects_nonpositive_cpi(self):
        with pytest.raises(TimingError):
            BaselineConfig(name="x", cpi=0.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SEQUENTIAL_BASELINE.cpi = 2.0
