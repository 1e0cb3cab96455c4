"""Two task sizes: the engine's default and the paper's.

``DistillConfig`` targets 300-instruction tasks by default, sized to
this implementation's per-task cost; every entry point that reproduces
an EXPERIMENTS.md table distills at ``PAPER_TASK_SIZE`` (150).  These
tests pin both halves of that split: the experiment helpers and the
cluster sweep really distill at the paper's size, and the default
really judges far fewer tasks while staying equal to the sequential
machine.
"""

import pytest

from repro.config import PAPER_TASK_SIZE, DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.experiments import bench, prepare
from repro.machine.interpreter import run_to_halt
from repro.mssp import create_engine
from repro.workloads import get_workload

SMALL = 6  # tiny workload size so the pipeline stays fast in tests


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    """Point the persistent cache at a private tmpdir."""
    root = tmp_path / "bench-cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(root))
    return root


@pytest.fixture()
def distilled_sizes(monkeypatch):
    """The target task size of every distillation run from now on."""
    sizes = []
    original = Distiller.distill

    def spy(self, *args, **kwargs):
        sizes.append(self.config.target_task_size)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Distiller, "distill", spy)
    return sizes


class TestPaperPin:
    def test_benchmark_helpers_distill_at_the_paper_size(
        self, cache_root, distilled_sizes, monkeypatch
    ):
        from benchmarks import common

        monkeypatch.setattr(common, "_MEMO", {})
        common.prepared("compress", size=SMALL)
        common.functional_run("crc", size=SMALL)
        common.timed_row("branchy", size=SMALL)
        assert distilled_sizes
        assert set(distilled_sizes) == {PAPER_TASK_SIZE}

    def test_experiment_variants_start_from_the_paper_config(self):
        from benchmarks import bench_e8_ablation, common

        assert common.PAPER_DISTILL == DistillConfig(
            target_task_size=PAPER_TASK_SIZE
        )
        for _, config in bench_e8_ablation.VARIANTS:
            assert config.target_task_size == PAPER_TASK_SIZE

    def test_cluster_sweep_distills_at_the_paper_size(self, distilled_sizes):
        bench.run_sim_bench(slave_counts=(2, 8), size=SMALL)
        assert distilled_sizes == [PAPER_TASK_SIZE]

    def test_trace_capture_takes_the_default(self, distilled_sizes):
        bench.capture_trace(
            "compress", SMALL, MsspConfig(runtime="eager")
        )
        assert distilled_sizes == [DistillConfig().target_task_size]


def judged_and_checked(ready):
    """Judged tasks of one eager run, checked against the sequential
    machine."""
    program = ready.instance.program
    with create_engine(
        program, ready.distillation, MsspConfig(runtime="eager")
    ) as engine:
        result = engine.run()
    reference = run_to_halt(program)
    assert result.final_state.pc == reference.state.pc
    assert result.final_state.diff(reference.state) == []
    counters = result.counters
    return counters.tasks_committed + counters.tasks_squashed


class TestDefaultTaskSize:
    @pytest.mark.parametrize("name", ["compress", "parse", "mispredict"])
    def test_default_judges_far_fewer_tasks(self, name):
        """At default size, 300-instruction tasks judge at most 0.6x the
        tasks of the paper's 150, with the same final state."""
        spec = get_workload(name)
        paper = judged_and_checked(prepare(
            spec, distill_config=DistillConfig(
                target_task_size=PAPER_TASK_SIZE
            ),
        ))
        default = judged_and_checked(prepare(spec))
        assert default <= 0.6 * paper, (default, paper)
