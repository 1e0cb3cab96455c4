"""Live-in value predictors: units, gating, and the bit-identity contract.

The headline contract under test: predictors may only *improve* live-in
accuracy, never change results.  With the master-miss-streak gate closed
(the master keeps predicting correctly) the predictor bank must be
completely invisible — ``MsspResult`` bit-identical to ``predictors=
"off"`` — and even a deliberately wrong confident prediction is caught
by verification and repaired by recovery, exactly like a master
misprediction.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.machine.interpreter import run_to_halt
from repro.mssp import MsspEngine
from repro.mssp.predict import CellPredictor, ValuePredictorBank
from repro.profiling import profile_program
from repro.workloads import get_workload

from tests.strategies import terminating_programs
from tests.workloads.test_suite import SMALL_SIZES

FAST_CONFIG = MsspConfig(
    max_task_instrs=2_000, max_master_instrs_per_task=2_000,
    max_total_instrs=5_000_000,
)


class TestCellPredictor:
    def test_last_value_needs_confidence(self):
        cell = CellPredictor()
        cell.train(7, master_wrong=False)
        assert cell.predict("last", confidence=2) is None
        cell.train(7, master_wrong=False)
        cell.train(7, master_wrong=False)
        assert cell.predict("last", confidence=2) == 7

    def test_stride_tracks_arithmetic_sequences(self):
        cell = CellPredictor()
        for value in (10, 13, 16, 19):
            cell.train(value, master_wrong=False)
        assert cell.predict("stride", confidence=2) == 22
        assert cell.predict("last", confidence=2) is None

    def test_context_recalls_repeating_patterns(self):
        cell = CellPredictor()
        for value in (1, 2, 3, 1, 2, 3, 1, 2):
            cell.train(value, master_wrong=False)
        # history (1, 2) has always been followed by 3
        assert cell.predict("context", confidence=2) == 3

    def test_auto_tournament_prefers_the_accurate_kind(self):
        cell = CellPredictor()
        for value in (5, 8, 11, 14, 17, 20):
            cell.train(value, master_wrong=False)
        assert cell.best_kind() == "stride"
        assert cell.predict("auto", confidence=2) == 23

    def test_master_streak_resets_on_correct_master(self):
        cell = CellPredictor()
        cell.train(1, master_wrong=True)
        cell.train(1, master_wrong=True)
        assert cell.master_streak == 2
        cell.train(1, master_wrong=False)
        assert cell.master_streak == 0
        assert cell.master_misses == 2


class TestBankGating:
    def make_bank(self, **kwargs):
        defaults = dict(kind="last", confidence=2, miss_gate=2)
        defaults.update(kwargs)
        return ValuePredictorBank(**defaults)

    def train(self, bank, anchor, reg, truth, wrong):
        cell = bank.cells.setdefault((anchor, reg), CellPredictor())
        cell.train(truth, master_wrong=wrong)

    def test_gate_closed_means_no_overrides(self):
        bank = self.make_bank()
        bank.retarget([10], None)
        for _ in range(5):
            self.train(bank, 10, 3, 42, wrong=False)
        bank.begin_episode()
        assert bank.predictions_for(10) is None

    def test_gate_opens_after_master_miss_streak(self):
        bank = self.make_bank()
        bank.retarget([10], None)
        for _ in range(3):
            self.train(bank, 10, 3, 42, wrong=True)
        bank.begin_episode()
        assert bank.predictions_for(10) == {3: 42}

    def test_observe_mode_never_overrides(self):
        bank = self.make_bank(kind="observe")
        bank.retarget([10], None)
        for _ in range(5):
            self.train(bank, 10, 3, 42, wrong=True)
        bank.begin_episode()
        assert bank.predictions_for(10) is None
        assert bank.stats_for(10)[3].master_misses == 5

    def test_retarget_drops_stale_anchors_and_resets_streaks(self):
        bank = self.make_bank()
        bank.retarget([10, 20], None)
        for _ in range(3):
            self.train(bank, 10, 3, 42, wrong=True)
            self.train(bank, 20, 4, 9, wrong=True)
        bank.retarget([20], None)
        assert (10, 3) not in bank.cells
        assert bank.cells[(20, 4)].master_streak == 0
        bank.begin_episode()
        assert bank.predictions_for(20) is None  # streak was reset

    def test_pickle_round_trip(self):
        bank = self.make_bank(kind="auto")
        bank.retarget([10], None)
        for value in (5, 8, 11, 14):
            self.train(bank, 10, 3, value, wrong=True)
        bank.begin_episode()
        clone = pickle.loads(pickle.dumps(bank))
        assert clone.predictions_for(10) == bank.predictions_for(10)
        assert clone.cells[(10, 3)].stride == 3
        assert [dataclasses.asdict(s) for s in clone.cell_stats()] == [
            dataclasses.asdict(s) for s in bank.cell_stats()
        ]


def run_pair(name, runtime):
    """(predictors off, predictors on) results for one workload."""
    from repro.experiments import evaluate, prepare

    prepared = prepare(get_workload(name), size=SMALL_SIZES[name])
    base = dataclasses.replace(MsspConfig(), runtime=runtime)
    off = evaluate(prepared, mssp_config=base)
    on = evaluate(
        prepared, mssp_config=dataclasses.replace(base, predictors="auto")
    )
    return off.mssp, on.mssp


class TestDifferential:
    """Predictors on vs off: bit-identical whenever the gate stays shut."""

    @pytest.mark.parametrize("name", sorted(SMALL_SIZES))
    def test_bit_identical_eager(self, name):
        off, on = run_pair(name, "eager")
        if name == "mispredict":
            # The adversarial workload is *why* the gate opens: the
            # predictor must strictly reduce squashes here, and both
            # runs stay SEQ-equivalent (evaluate checks it).
            assert on.counters.tasks_squashed < off.counters.tasks_squashed
            assert on.counters.predictor_hits > 0
            return
        assert on == off

    @pytest.mark.parametrize(
        "name", ("hashlookup", "fib_memo", "compress", "mispredict")
    )
    def test_bit_identical_process(self, name):
        off_eager, on_eager = run_pair(name, "eager")
        off_process, on_process = run_pair(name, "process")
        assert off_process == off_eager
        assert on_process == on_eager

    @given(terminating_programs(), st.sampled_from(
        ["last", "stride", "context", "auto"]
    ))
    @settings(max_examples=20, deadline=None)
    def test_random_programs_stay_equivalent(self, program, kind):
        """For arbitrary programs the gate may open or not — either way
        the final state must equal sequential execution."""
        profile = profile_program(program)
        distillation = Distiller(
            DistillConfig(target_task_size=8)
        ).distill(program, profile)
        config = dataclasses.replace(
            FAST_CONFIG, predictors=kind,
            predict_confidence=1, predict_miss_gate=1,
        )
        result = MsspEngine(program, distillation, config).run()
        reference = run_to_halt(
            program, max_steps=FAST_CONFIG.max_total_instrs
        )
        assert result.final_state.diff(reference.state) == []
        assert result.counters.total_instrs == reference.steps


class _WrongBank(ValuePredictorBank):
    """A bank whose every confident prediction is deliberately wrong."""

    def __init__(self, poison):
        super().__init__(kind="last", confidence=1, miss_gate=1)
        self.poison = poison

    def begin_episode(self):
        self._snapshot = dict(self.poison)


class TestForcedMispredict:
    def test_wrong_prediction_squashes_and_recovers(self, monkeypatch):
        """A confidently wrong predictor is exactly as harmless as a
        wrong master: verification squashes, recovery repairs."""
        name = "compress"
        instance = get_workload(name).instance(SMALL_SIZES[name])
        profile = profile_program(instance.train_programs[0])
        distillation = Distiller(DistillConfig()).distill(
            instance.program, profile
        )
        config = dataclasses.replace(MsspConfig(), predictors="last")
        engine = MsspEngine(instance.program, distillation, config)
        anchors = list(distillation.pc_map.anchors)
        poison = {anchor: {4: 0x7FF12345} for anchor in anchors}
        monkeypatch.setattr(
            engine, "_make_predictor", lambda: _WrongBank(poison)
        )
        result = engine.run()
        reference = run_to_halt(instance.program)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.total_instrs == reference.steps
        clean = MsspEngine(
            instance.program, distillation, MsspConfig()
        ).run()
        assert result.counters.tasks_squashed > clean.counters.tasks_squashed
        assert result.counters.predictor_misses > 0
