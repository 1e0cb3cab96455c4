"""Cluster scenarios of the timing model: link contention, slave speeds
and outages, as ``repro sim`` replays them.

The cycle counts pinned here were recorded from the discrete-event
cluster replay this model replaced, on the same records and knobs.
"""

import pytest

from repro.config import SlaveFailure, TimingConfig
from repro.errors import TimingError
from repro.mssp.trace import TaskAttemptRecord
from repro.timing.simulator import MsspTimingSimulator


def synthetic_records(n_tasks=12, n_instrs=100, checkpoint_words=4):
    return [
        TaskAttemptRecord(
            tid=tid, start_pc=0, end_pc=10, n_instrs=n_instrs,
            master_instrs=20, committed=True,
            checkpoint_words=checkpoint_words,
        )
        for tid in range(n_tasks)
    ]


def replay(records, **knobs):
    return MsspTimingSimulator(TimingConfig(**knobs)).simulate_records(
        records
    )


class TestScenarios:
    def test_contended_link_slows_the_run(self):
        records = synthetic_records(16, checkpoint_words=8)
        ideal = replay(records, n_slaves=8, checkpoint_word_latency=5.0)
        # 50 cycles of extra latency on every transfer, one channel.
        contended = replay(
            records, n_slaves=8, checkpoint_word_latency=5.0,
            spawn_latency=80.0, link_channels=1,
        )
        assert ideal.total_cycles == pytest.approx(420.0, rel=1e-9)
        assert contended.total_cycles == pytest.approx(2030.0, rel=1e-9)
        assert contended.master_stall_cycles == pytest.approx(
            910.0, rel=1e-9
        )

    def test_heterogeneous_slaves_slow_the_run(self):
        records = synthetic_records(16)
        even = replay(records, n_slaves=4)
        uneven = replay(
            records, n_slaves=4, slave_speeds=(0.25, 0.25, 0.25, 0.25)
        )
        assert even.total_cycles == pytest.approx(560.0, rel=1e-9)
        assert uneven.total_cycles == pytest.approx(1760.0, rel=1e-9)
        assert uneven.master_stall_cycles == pytest.approx(
            1170.0, rel=1e-9
        )

    def test_slave_failure_delays_completion(self):
        records = synthetic_records(8)
        plain = replay(records, n_slaves=1)
        failed = replay(
            records, n_slaves=1,
            failures=(SlaveFailure(slot=0, at=plain.total_cycles / 4,
                                   downtime=plain.total_cycles),),
        )
        assert plain.total_cycles == pytest.approx(1050.0, rel=1e-9)
        assert failed.total_cycles == pytest.approx(2072.5, rel=1e-9)
        assert failed.master_stall_cycles == pytest.approx(
            1862.5, rel=1e-9
        )

    def test_failure_after_the_run_is_free(self):
        records = synthetic_records(8)
        plain = replay(records, n_slaves=2)
        late = replay(
            records, n_slaves=2,
            failures=(SlaveFailure(slot=0, at=plain.total_cycles + 1.0,
                                   downtime=1000.0),),
        )
        assert plain.total_cycles == pytest.approx(540.0, rel=1e-9)
        assert late.total_cycles == pytest.approx(plain.total_cycles)

    def test_outage_pauses_and_resumes_work(self):
        sim = MsspTimingSimulator(TimingConfig(
            n_slaves=1,
            failures=(SlaveFailure(slot=0, at=10.0, downtime=5.0),),
        ))
        # Work started before the outage pauses across it.
        assert sim._outage_done(0, 8.0, 4.0) == 8.0 + 4.0 + 5.0
        # Work landing in the outage waits for the restart.
        assert sim._outage_done(0, 12.0, 4.0) == 15.0 + 4.0
        # Work on an unaffected slot is untouched.
        assert sim._outage_done(1, 8.0, 4.0) == 12.0

    def test_outage_walk_takes_outages_in_start_order(self):
        sim = MsspTimingSimulator(TimingConfig(
            n_slaves=1,
            failures=(
                SlaveFailure(slot=0, at=20.0, downtime=5.0),
                SlaveFailure(slot=0, at=10.0, downtime=5.0),
            ),
        ))
        # 4 cycles before the first outage, 5 between, 1 after.
        assert sim._outage_done(0, 6.0, 10.0) == 26.0
        # Work that finishes before an outage never meets it.
        assert sim._outage_done(0, 0.0, 10.0) == 10.0


class TestConfigValidation:
    def test_rejects_nonpositive_slaves(self):
        with pytest.raises(TimingError):
            TimingConfig(n_slaves=0)

    def test_rejects_negative_link_channels(self):
        with pytest.raises(TimingError):
            TimingConfig(link_channels=-1)

    def test_rejects_nonpositive_speeds(self):
        with pytest.raises(TimingError):
            TimingConfig(slave_speeds=(1.0, 0.0))

    def test_rejects_failure_outside_cluster(self):
        with pytest.raises(TimingError):
            TimingConfig(
                n_slaves=2,
                failures=(SlaveFailure(slot=5, at=0.0, downtime=1.0),),
            )

    @pytest.mark.parametrize("at, downtime", [(-1.0, 1.0), (0.0, -1.0)])
    def test_rejects_negative_failure_times(self, at, downtime):
        with pytest.raises(TimingError):
            TimingConfig(
                n_slaves=2,
                failures=(SlaveFailure(slot=0, at=at, downtime=downtime),),
            )
