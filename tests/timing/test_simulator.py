"""Unit tests for the task-level timing simulator."""

import dataclasses

import pytest

from repro.config import (
    BaselineConfig,
    OOO_BASELINE,
    SEQUENTIAL_BASELINE,
    TimingConfig,
)
from repro.errors import TimingError
from repro.mssp.engine import MsspResult
from repro.mssp.trace import (
    MasterFailureRecord,
    MsspCounters,
    RecoveryRecord,
    TaskAttemptRecord,
)
from repro.timing import (
    baseline_cycles,
    simulate_mssp,
    speedup,
)


def task(tid, n, master, committed=True, **kw):
    return TaskAttemptRecord(
        tid=tid, start_pc=0, end_pc=1, n_instrs=n, master_instrs=master,
        committed=committed, **kw,
    )


def make_result(records, committed_instrs=None, recovery_instrs=0):
    counters = MsspCounters()
    for record in records:
        if isinstance(record, TaskAttemptRecord) and record.committed:
            counters.tasks_committed += 1
            counters.committed_instrs += record.n_instrs
        if isinstance(record, RecoveryRecord):
            counters.recovery_instrs += record.n_instrs
    if committed_instrs is not None:
        counters.committed_instrs = committed_instrs
    from repro.machine.state import ArchState

    return MsspResult(
        final_state=ArchState(), halted=True, records=list(records),
        counters=counters,
    )


#: Zero-latency configuration isolates the instruction-cost arithmetic.
FREE = TimingConfig(
    n_slaves=4, master_cpi=0.5, slave_cpi=1.0, spawn_latency=0.0,
    commit_latency=0.0, squash_penalty=0.0, restart_latency=0.0,
)


class TestSingleTask:
    def test_slave_bound_task(self):
        result = make_result([task(0, n=100, master=10)])
        breakdown = simulate_mssp(result, FREE)
        # master closes at 5, slave runs 100 cycles from 0.
        assert breakdown.total_cycles == pytest.approx(100.0)
        assert breakdown.slave_bound_tasks == 1

    def test_master_bound_task(self):
        result = make_result([task(0, n=10, master=100)])
        breakdown = simulate_mssp(result, FREE)
        assert breakdown.total_cycles == pytest.approx(50.0)
        assert breakdown.master_bound_tasks == 1

    def test_spawn_and_commit_latency_add(self):
        config = dataclasses.replace(FREE, spawn_latency=7.0, commit_latency=3.0)
        result = make_result([task(0, n=10, master=2)])
        breakdown = simulate_mssp(result, config)
        assert breakdown.total_cycles == pytest.approx(7 + 10 + 3)


class TestPipelining:
    def test_slaves_overlap(self):
        """With enough slaves, throughput is master-limited."""
        records = [task(i, n=100, master=100) for i in range(8)]
        breakdown = simulate_mssp(make_result(records), FREE)
        # Master produces a fork every 50 cycles; each slave needs 100.
        # Completion: last close at 400, last slave ends 350+100=450.
        assert breakdown.total_cycles == pytest.approx(450.0)

    def test_single_slave_serializes(self):
        config = dataclasses.replace(FREE, n_slaves=1)
        records = [task(i, n=100, master=10) for i in range(4)]
        breakdown = simulate_mssp(make_result(records), config)
        assert breakdown.total_cycles == pytest.approx(400.0)
        assert breakdown.master_stall_cycles > 0

    def test_more_slaves_never_slower(self):
        records = [task(i, n=60, master=20) for i in range(12)]
        cycles = []
        for n in (1, 2, 4, 8):
            config = dataclasses.replace(FREE, n_slaves=n)
            cycles.append(simulate_mssp(make_result(records), config).total_cycles)
        assert cycles == sorted(cycles, reverse=True)

    def test_commit_serialization_counted(self):
        config = dataclasses.replace(FREE, commit_latency=50.0)
        records = [task(i, n=10, master=1) for i in range(4)]
        breakdown = simulate_mssp(make_result(records), config)
        assert breakdown.commit_bound_tasks >= 1


class TestSquashAndRecovery:
    def test_squash_penalty_applied(self):
        config = dataclasses.replace(FREE, squash_penalty=100.0)
        records = [
            task(0, n=10, master=10, committed=False),
            RecoveryRecord(n_instrs=20, halted=True, resumed_at=None),
        ]
        breakdown = simulate_mssp(make_result(records), config)
        assert breakdown.squash_overhead_cycles == pytest.approx(100.0)
        assert breakdown.recovery_cycles == pytest.approx(20.0)
        assert breakdown.squashed_tasks == 1

    def test_master_failure_costs_cycles(self):
        records = [
            MasterFailureRecord(kind="timeout", master_instrs=200),
            RecoveryRecord(n_instrs=10, halted=True, resumed_at=None),
        ]
        breakdown = simulate_mssp(make_result(records), FREE)
        assert breakdown.total_cycles == pytest.approx(200 * 0.5 + 10)

    def test_recovery_serializes_after_squash(self):
        config = dataclasses.replace(FREE, restart_latency=5.0)
        records = [
            task(0, n=10, master=2, committed=False),
            RecoveryRecord(n_instrs=30, halted=False, resumed_at=1),
            task(1, n=10, master=2),
        ]
        breakdown = simulate_mssp(make_result(records), config)
        # squash at 10, recovery 15..45, next task slave 45..55.
        assert breakdown.total_cycles == pytest.approx(55.0)

    def test_higher_latencies_never_faster(self):
        records = [
            task(0, n=40, master=10),
            task(1, n=40, master=10, committed=False),
            RecoveryRecord(n_instrs=40, halted=False, resumed_at=0),
            task(2, n=40, master=10),
        ]
        base = simulate_mssp(make_result(records), FREE).total_cycles
        for name in ("spawn_latency", "commit_latency", "squash_penalty",
                     "restart_latency"):
            config = dataclasses.replace(FREE, **{name: 25.0})
            assert simulate_mssp(make_result(records), config).total_cycles >= base


class TestSpeedup:
    def test_baseline_cycles(self):
        assert baseline_cycles(1000, SEQUENTIAL_BASELINE) == 1000.0
        assert baseline_cycles(1000, OOO_BASELINE) == pytest.approx(450.0)
        assert baseline_cycles(1000, BaselineConfig(name="x", cpi=2.0)) == 2000.0

    def test_speedup_slave_limited_by_core_count(self):
        """With 4 slaves and tasks as heavy as the baseline's work, the
        speedup ceiling is the slave count."""
        records = [task(i, n=100, master=25) for i in range(40)]
        value = speedup(make_result(records), FREE)
        assert 3.5 < value <= 4.0

    def test_speedup_master_limited_with_many_slaves(self):
        """With slaves to spare, throughput is the master's fork rate:
        baseline_instrs / (master_instrs * master_cpi)."""
        config = dataclasses.replace(FREE, n_slaves=16)
        records = [task(i, n=100, master=25) for i in range(40)]
        value = speedup(make_result(records), config)
        # 4000 instrs vs ~40 * 12.5 = 500 cycles of master work.
        assert value > 6.0

    def test_speedup_of_pure_recovery_is_below_one(self):
        records = [RecoveryRecord(n_instrs=100, halted=True, resumed_at=None)]
        config = dataclasses.replace(FREE, restart_latency=10.0)
        assert speedup(make_result(records), config) < 1.0

    def test_empty_trace_raises(self):
        with pytest.raises(TimingError):
            speedup(make_result([]), FREE)

    def test_total_loads_counts_what_advanced_state(self):
        result = make_result([
            task(0, n=10, master=2, n_loads=3),
            task(1, n=10, master=2, committed=False, n_loads=5),
            RecoveryRecord(
                n_instrs=10, halted=True, resumed_at=None, n_loads=4
            ),
        ])
        assert result.total_loads == 7

    @pytest.mark.parametrize(
        "name, size",
        [("compress", 600), ("crc", 300), ("pointer_chase", 300),
         ("mispredict", 1100)],
    )
    def test_load_penalty_charges_the_programs_loads(self, name, size):
        """E12's formula over the sequential count oracle: a baseline
        with a load penalty pays it on the program's own loads."""
        from repro.experiments import prepare
        from repro.machine.interpreter import count_instructions_and_loads
        from repro.mssp.engine import run_mssp
        from repro.workloads import get_workload

        ready = prepare(get_workload(name), size=size)
        result = run_mssp(ready.instance.program, ready.distillation)
        seq_instrs, seq_loads = count_instructions_and_loads(
            ready.instance.program
        )
        assert seq_loads > 0
        baseline = BaselineConfig(load_penalty=3.0)
        expected = baseline_cycles(
            seq_instrs, baseline, seq_loads
        ) / simulate_mssp(result).total_cycles
        assert speedup(result, baseline=baseline) == expected
