"""The run-ahead window of the pipelined runtimes.

:class:`~repro.mssp.runtime.pipeline.RunAheadWindow` decides how many
produced-but-unjudged tasks the master may hold and how many of them a
chunk carries.  These tests pin its rule, check that the pipeline feeds
it every commit, squash and stale result, and show double-buffering as
a fact of the event stream: with one worker, the second chunk is on its
way before the first chunk's first result is adopted.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MsspConfig
from repro.mssp import create_engine
from repro.mssp.runtime import pipeline
from repro.mssp.runtime.events import EventLog
from repro.mssp.runtime.pipeline import RunAheadWindow
from repro.mssp.runtime.procpool import _PipePool

from tests.mssp.test_runtime_core import prepared


class TestWindowRule:
    def test_starts_at_two_chunks_per_worker(self):
        window = RunAheadWindow(workers=2, max_chunk=4, limit=64)
        assert (window.tasks, window.chunk) == (16, 4)
        capped = RunAheadWindow(workers=4, max_chunk=16, limit=64)
        assert (capped.tasks, capped.chunk) == (64, 8)

    def test_grows_one_task_per_commit_up_to_the_limit(self):
        window = RunAheadWindow(workers=1, max_chunk=4, limit=11)
        seen = [window.tasks]
        for _ in range(6):
            window.committed()
            seen.append(window.tasks)
        assert seen == [8, 9, 10, 11, 11, 11, 11]

    def test_halves_on_waste_down_to_one_task(self):
        window = RunAheadWindow(workers=2, max_chunk=16, limit=64)
        seen = [window.tasks]
        for _ in range(8):
            window.wasted()
            seen.append(window.tasks)
        assert seen == [64, 32, 16, 8, 4, 2, 1, 1, 1]
        assert window.chunk == 1

    def test_chunk_follows_the_window(self):
        window = RunAheadWindow(workers=1, max_chunk=16, limit=64)
        window.wasted()
        assert (window.tasks, window.chunk) == (16, 8)
        window.committed()
        window.committed()
        assert (window.tasks, window.chunk) == (18, 9)

    def test_limit_below_two_tasks_per_worker(self):
        window = RunAheadWindow(workers=4, max_chunk=16, limit=3)
        assert (window.tasks, window.chunk) == (3, 1)
        window.wasted()
        assert (window.tasks, window.chunk) == (1, 1)
        window.committed()
        window.committed()
        window.committed()
        assert (window.tasks, window.chunk) == (3, 1)

    @given(
        workers=st.integers(1, 8),
        max_chunk=st.integers(1, 32),
        limit=st.integers(1, 256),
        verdicts=st.lists(st.booleans(), max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_verdict_sequence_keeps_the_bounds(
        self, workers, max_chunk, limit, verdicts
    ):
        window = RunAheadWindow(workers, max_chunk, limit)
        for committed in verdicts:
            before = window.tasks
            if committed:
                window.committed()
                assert window.tasks == min(limit, before + 1)
            else:
                window.wasted()
                assert window.tasks == max(1, before // 2)
            assert 1 <= window.tasks <= limit
            assert 1 <= window.chunk <= max_chunk


class _Recording(RunAheadWindow):
    """A window that counts the verdicts the pipeline feeds it."""

    log = []

    def committed(self):
        self.log.append("commit")
        super().committed()

    def wasted(self):
        self.log.append("waste")
        super().wasted()


THREAD = MsspConfig(
    exec_tier="decoded", runtime="thread", num_slaves=2,
    parallel_chunk_tasks=4, max_inflight_tasks=16,
)


class TestPipelineFeedsTheWindow:
    @pytest.mark.parametrize(
        "name, checkpoint_mode",
        # Delta checkpoints ship only what the master wrote since the
        # previous fork: a later chunk reads the rest, stale, from the
        # episode-start image.
        [("mispredict", "cumulative"), ("fib_memo", "delta")],
    )
    def test_every_commit_squash_and_stale_result(
        self, monkeypatch, name, checkpoint_mode
    ):
        monkeypatch.setattr(pipeline, "RunAheadWindow", _Recording)
        _Recording.log = []
        ready = prepared(name)
        config = dataclasses.replace(THREAD, checkpoint_mode=checkpoint_mode)
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            counters = engine.run().counters
        assert counters.tasks_squashed > 0
        assert (counters.dispatch.stale > 0) == (checkpoint_mode == "delta")
        assert _Recording.log.count("commit") == counters.tasks_committed
        assert _Recording.log.count("waste") == (
            counters.tasks_squashed + counters.dispatch.stale
        )

    def test_eager_runs_leave_the_window_alone(self, monkeypatch):
        monkeypatch.setattr(pipeline, "RunAheadWindow", _Recording)
        _Recording.log = []
        ready = prepared("mispredict")
        create_engine(
            ready.instance.program, ready.distillation,
            dataclasses.replace(THREAD, runtime="eager"),
        ).run()
        assert _Recording.log == []

    def test_repeated_runs_dispatch_identically(self):
        ready = prepared("mispredict")
        with create_engine(
            ready.instance.program, ready.distillation, THREAD
        ) as engine:
            first = engine.run().counters.dispatch
            second = engine.run().counters.dispatch
        assert first.chunks > 0
        assert second == first


class TestDoubleBuffering:
    def test_second_chunk_ships_before_the_first_result_is_adopted(self):
        ready = prepared("compress")
        config = MsspConfig(
            exec_tier="decoded", runtime="process", num_slaves=1
        )
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            log = EventLog()
            engine.events.subscribe(log)
            result = engine.run()
        assert result.counters.tasks_squashed == 0
        kinds = [event.kind for event in log.events]
        dispatched = [
            i for i, kind in enumerate(kinds) if kind == "chunk_dispatched"
        ]
        assert len(dispatched) >= 2
        first_chunk = log.events[dispatched[0]]
        adopted = [
            i for i, event in enumerate(log.events)
            if event.kind == "result_adopted"
            and first_chunk.first_tid <= event.tid <= first_chunk.last_tid
        ]
        assert adopted, "the worker's results were never adopted"
        assert dispatched[1] < adopted[0]


class TestEpisodeBaseShipsOncePerWorker:
    def test_only_each_workers_first_chunk_carries_the_base(
        self, monkeypatch
    ):
        sent = []
        submit = _PipePool.submit

        def recording(self, worker, payload):
            sent.append((payload[4], worker, payload[5] is not None))
            return submit(self, worker, payload)

        monkeypatch.setattr(_PipePool, "submit", recording)
        ready = prepared("mispredict")
        config = dataclasses.replace(THREAD, runtime="process")
        reference = create_engine(
            ready.instance.program, ready.distillation,
            dataclasses.replace(config, runtime="eager"),
        ).run()
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            result = engine.run()
        assert result.records == reference.records
        assert result.counters == reference.counters
        assert result.counters.dispatch.adopted > 0
        episodes = {key for key, _, _ in sent}
        assert len(episodes) > 1
        seen = set()
        for key, worker, carries_base in sent:
            assert carries_base == ((key, worker) not in seen)
            seen.add((key, worker))
