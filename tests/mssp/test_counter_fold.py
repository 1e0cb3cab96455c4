"""Counters are a fold over the event stream.

:class:`~repro.mssp.trace.TraceRecorder` builds a run's
``MsspCounters`` and its ``DispatchStats`` from the events the run
emits; neither the engine nor the pipeline counts anything itself.
These tests hold that fold to three standards:

* **Pinned counts.** ``pinned_counters.json`` holds
  ``dataclasses.asdict(result.counters)`` for every row of
  :func:`row_runs`, recorded by :func:`record_rows` from the engine as
  it stood before the fold, when each count was a separate increment.
  Every protocol field must still match.  ``dispatch.discarded`` is the
  one field whose meaning was corrected: the old count added the
  undispatched tasks on top of the unjudged ones, which already held
  them.  Its pinned value is the old one; the row's
  ``forked_minus_judged`` (computed from the old run's own events) is
  what the fold must report.  The whole ``dispatch`` block of
  ``fib_memo/process``, ``hashlookup/process`` and
  ``mispredict/process`` was re-recorded when a run-ahead window that
  grows on commits and halves on squashes replaced the fixed one:
  routing moved, no protocol field did.  The ``*/process`` rows were
  recorded on an in-process thread backend, since deleted; the process
  runtime matches every field of them, ``dispatch`` included.
* **The discard rule.** On the pipelined runtimes ``discarded`` equals
  the ``task_forked`` events minus the judged tasks.
* **Round trip.** A trace exported to JSONL and imported again folds
  back into the run's records and counters, dispatch included.

``python -m tests.mssp.test_counter_fold`` prints the rows as JSON.
"""

import dataclasses
import io
import json
import os
import sys

import pytest

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.distill.pc_map import PcMap
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.mssp import TraceRecorder, create_engine
from repro.mssp.runtime.events import EventLog
from repro.profiling import profile_program
from repro.timing.tracefile import export_events, import_events
from repro.workloads import get_workload, workload_names

from tests.mssp.test_engine import LOOP_SOURCE
from tests.mssp.test_protected_regions import IO_PROGRAM, REGIONS
from tests.mssp.test_runtime_matrix import prepared
from tests.mssp.test_throttling import hostile_setup

FIXTURE = os.path.join(os.path.dirname(__file__), "pinned_counters.json")

EAGER = MsspConfig(exec_tier="decoded", runtime="eager")
#: The pipelined shape of the runtime differentials: 2 workers, small
#: chunks and a narrow window, so episodes end with tasks in flight.
PROCESS = MsspConfig(
    exec_tier="decoded", runtime="process", num_slaves=2,
    parallel_chunk_tasks=4, max_inflight_tasks=16,
)
MODES = {
    "eager-decoded": EAGER,
    "adaptive": EAGER.with_adaptation(),
    "throttled": dataclasses.replace(
        EAGER, throttle_threshold=0.25, throttle_window=4,
        throttle_chunk=500,
    ),
    "process": PROCESS,
}


def run_logged(program, distillation, config, profile=None, distill=None):
    """One run with an ``EventLog`` subscribed; returns (result, log)."""
    with create_engine(program, distillation, config) as engine:
        if config.redistill_threshold:
            engine.enable_adaptation(profile, distill_config=distill)
        log = EventLog()
        engine.events.subscribe(log)
        return engine.run(), log


_SMALL = {}


def _workload_row(name, config, size=None):
    def run():
        if size is None:
            ready = prepared(name)
        else:
            if (name, size) not in _SMALL:
                _SMALL[name, size] = prepare(get_workload(name), size=size)
            ready = _SMALL[name, size]
        return run_logged(
            ready.instance.program, ready.distillation, config,
            profile=ready.profile, distill=ready.distill_config,
        )
    return run


def _loop_row(distilled_source, resume_pc, config):
    """LOOP_SOURCE under a hand-built master that never forks."""
    def run():
        program = assemble(LOOP_SOURCE, name="loop")
        distilled = assemble(distilled_source, name="master")
        pc_map = PcMap(
            resume={program.entry: resume_pc}, entry_orig=program.entry
        )
        return run_logged(program, (distilled, pc_map), config)
    return run


def _io_row():
    program = assemble(IO_PROGRAM)
    distillation = Distiller(
        DistillConfig(target_task_size=20, min_branch_count=4)
    ).distill(program, profile_program(program))
    config = dataclasses.replace(EAGER, protected_regions=REGIONS)
    return run_logged(program, distillation, config)


def _hostile_row(config):
    def run():
        program, corrupted, pc_map = hostile_setup()
        return run_logged(program, (corrupted, pc_map), dataclasses.replace(
            config, max_task_instrs=2_000, max_master_instrs_per_task=2_000,
        ))
    return run


def row_runs():
    """Row name -> zero-argument callable returning (result, log)."""
    rows = {
        f"{name}/{mode}": _workload_row(name, config)
        for name in workload_names()
        for mode, config in MODES.items()
    }
    # Rows that make the rarer counters non-zero.
    rows["loop/master-timeout-before-fork"] = _loop_row(
        "main: j main\nhalt", 0,
        dataclasses.replace(EAGER, max_master_instrs_per_task=100),
    )
    rows["loop/master-trap"] = _loop_row("halt", 500, EAGER)
    rows["io/device-accesses"] = _io_row
    rows["hostile/throttled"] = _hostile_row(dataclasses.replace(
        EAGER, throttle_threshold=0.5, throttle_window=4, throttle_chunk=200,
    ))
    rows["hostile/process"] = _hostile_row(PROCESS)
    # At 1/8 size mispredict's few squashes never open a predictor's
    # miss gate; at 1,100 they do.
    rows["mispredict-1100/predictors"] = _workload_row(
        "mispredict", EAGER.with_adaptation(redistill_threshold=None), 1100
    )
    rows["mispredict-1100/adaptive"] = _workload_row(
        "mispredict", MODES["adaptive"], 1100
    )
    return rows


def forked_minus_judged(log):
    """Tasks the master announced but the verify unit never judged."""
    kinds = [event.kind for event in log.events]
    return kinds.count("task_forked") - (
        kinds.count("task_committed") + kinds.count("task_squashed")
    )


def record_rows():
    """Every row's counters and the discard count its events imply."""
    out = {}
    for row, run in row_runs().items():
        result, log = run()
        out[row] = {
            "counters": dataclasses.asdict(result.counters),
            "forked_minus_judged": forked_minus_judged(log),
        }
    return out


def _load_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


class TestPinnedCounters:
    @pytest.mark.parametrize("row", sorted(row_runs()))
    def test_counters_match_pinned(self, row):
        pinned = _load_fixture()[row]
        result, log = row_runs()[row]()
        counters = dataclasses.asdict(result.counters)
        dispatch = counters.pop("dispatch")
        expected = dict(pinned["counters"])
        expected_dispatch = expected.pop("dispatch")
        assert counters == expected
        expected_dispatch["discarded"] = pinned["forked_minus_judged"]
        assert dispatch == expected_dispatch
        assert dispatch["discarded"] == forked_minus_judged(log)

    def test_rare_counters_are_exercised(self):
        """The fixture really covers every counter the fold derives."""
        rows = {
            row: entry["counters"] for row, entry in _load_fixture().items()
        }
        for field in (
            "master_failures", "device_accesses", "throttle_episodes",
            "redistillations", "predictor_hits", "predictor_misses",
            "static_verify_skips", "recovery_episodes",
        ):
            assert any(c[field] for c in rows.values()), field
        timeout = rows["loop/master-timeout-before-fork"]
        assert timeout["tasks_committed"] == 0
        assert timeout["master_failures"] == timeout["restarts"]


class TestDiscardRule:
    @pytest.mark.parametrize(
        "config",
        [pytest.param(PROCESS, id="process")],
    )
    def test_discarded_is_forked_minus_judged(self, config):
        ready = prepared("mispredict")
        result, log = run_logged(
            ready.instance.program, ready.distillation, config
        )
        dispatch = result.counters.dispatch
        assert dispatch.dispatched > 0
        assert dispatch.discarded == forked_minus_judged(log) > 0
        assert dispatch.reexecuted == dispatch.stale + dispatch.missing


class TestRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(EAGER, id="eager"),
            pytest.param(PROCESS, id="process"),
        ],
    )
    def test_imported_trace_folds_to_the_run(self, config):
        ready = prepared("mispredict")
        result, log = run_logged(
            ready.instance.program, ready.distillation, config
        )
        buffer = io.StringIO()
        export_events(log.events, buffer)
        buffer.seek(0)
        recorder = TraceRecorder()
        for event in import_events(buffer):
            recorder(event)
        assert recorder.records == result.records
        assert recorder.counters == result.counters
        assert recorder.counters.dispatch == result.counters.dispatch


if __name__ == "__main__":
    json.dump(record_rows(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
