"""Tests for JSONL trace export/import round-tripping."""

import io
import json

import pytest

from repro.config import DistillConfig, MsspConfig, TimingConfig
from repro.distill import Distiller
from repro.isa.asm import assemble
from repro.mssp.engine import create_engine
from repro.mssp.runtime.events import EventLog
from repro.mssp.trace import TaskAttemptRecord
from repro.profiling import profile_program
from repro.timing.simulator import records_from_events
from repro.timing.tracefile import (
    TaskSketch,
    event_from_dict,
    event_to_dict,
    export_events,
    import_events,
)

SOURCE = """
main:   li r1, 90
loop:   addi r1, r1, -1
        add r2, r2, r1
        bne r1, zero, loop
        sw r2, 0x900(zero)
        halt
"""


@pytest.fixture(scope="module")
def captured():
    program = assemble(SOURCE)
    profile = profile_program(program)
    distillation = Distiller(DistillConfig(target_task_size=20)).distill(
        program, profile
    )
    log = EventLog()
    with create_engine(
        program, distillation, MsspConfig(runtime="process", num_slaves=2)
    ) as engine:
        engine.events.subscribe(log)
        engine.run()
    return log.events


class TestRoundTrip:
    def test_kinds_and_stamps_survive(self, captured):
        buffer = io.StringIO()
        count = export_events(captured, buffer)
        assert count == len(captured)
        buffer.seek(0)
        rebuilt = import_events(buffer)
        assert [e.kind for e in rebuilt] == [e.kind for e in captured]
        assert [e.at for e in rebuilt] == [e.at for e in captured]
        assert [e.actor for e in rebuilt] == [e.actor for e in captured]

    def test_trace_records_rebuild_exactly(self, captured):
        buffer = io.StringIO()
        export_events(captured, buffer)
        buffer.seek(0)
        rebuilt = import_events(buffer)
        assert records_from_events(rebuilt) == records_from_events(captured)

    def test_file_path_round_trip(self, captured, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        count = export_events(captured, path)
        rebuilt = import_events(path)
        assert len(rebuilt) == count

    def test_imported_trace_calibrates(self, captured):
        buffer = io.StringIO()
        export_events(captured, buffer)
        buffer.seek(0)
        rebuilt = import_events(buffer)
        timing = TimingConfig.calibrate(rebuilt)
        assert timing.slave_cpi > 0.0

    def test_tasks_export_as_sketches(self, captured):
        buffer = io.StringIO()
        export_events(captured, buffer)
        buffer.seek(0)
        rebuilt = import_events(buffer)
        executed = [e for e in rebuilt if e.kind == "task_executed"]
        assert executed
        assert all(isinstance(e.task, TaskSketch) for e in executed)
        assert all(e.task.n_instrs > 0 for e in executed)


class TestEventCodec:
    def test_record_payload_round_trips(self):
        from repro.mssp.runtime.events import TaskCommitted

        record = TaskAttemptRecord(
            tid=3, start_pc=0, end_pc=8, n_instrs=40, master_instrs=10,
            committed=True, checkpoint_words=5,
        )
        event = TaskCommitted(tid=3, record=record)
        rebuilt = event_from_dict(event_to_dict(event))
        assert rebuilt.record == record

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "wormhole", "at": 0.0, "actor": ""})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            event_from_dict({
                "kind": "task_forked", "at": 0.0, "actor": "",
                "tid": 1, "start_pc": 0, "end_pc": None, "wormhole": 9,
            })

    def test_bad_json_reports_line_number(self):
        source = io.StringIO('{"kind": "task_forked", "tid": 0, '
                             '"start_pc": 0, "end_pc": null}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            import_events(source)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"kind": "nosuch"}', "unknown event kind 'nosuch'"),
            ('{"kind": "task_forked", "tid": 0, "start_pc": 0, '
             '"end_pc": null, "wormhole": 9}', "unknown fields"),
            ('{"kind": "task_forked"}', "missing 3 required"),
            ('[1, 2]', "must be a JSON object"),
            ('not json', "not valid JSON"),
        ],
    )
    def test_every_line_error_names_its_line(self, line, message):
        good = ('{"kind": "task_forked", "tid": 0, "start_pc": 0, '
                '"end_pc": null}')
        source = io.StringIO(f"{good}\n\n{line}\n")
        with pytest.raises(ValueError) as error:
            import_events(source)
        text = str(error.value)
        assert text.startswith("trace line 3: ")
        assert message in text

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            import_events(str(tmp_path / "missing.jsonl"))

    def test_blank_lines_skipped(self, captured):
        buffer = io.StringIO()
        export_events(captured[:3], buffer)
        text = "\n" + buffer.getvalue().replace("\n", "\n\n")
        assert len(import_events(io.StringIO(text))) == 3

    def test_export_is_plain_jsonl(self, captured):
        buffer = io.StringIO()
        export_events(captured[:5], buffer)
        for line in buffer.getvalue().splitlines():
            assert isinstance(json.loads(line), dict)
