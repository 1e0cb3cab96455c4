"""JSONL serialization of captured EventBus streams (``repro trace``).

One event per line: ``{"kind", "at", "actor", ...constructor fields}``.
Trace records (committed/squashed/failure/recovery payloads) round-trip
as real :mod:`repro.mssp.trace` dataclasses, so an imported stream feeds
:func:`~repro.timing.simulator.records_from_events` and the timing
model exactly like a live ``EventLog``.
Task objects on ``task_executed`` events are exported as a sketch of
their measurable fields (tid, instruction/load counts, measured
execution seconds) — enough for
:meth:`~repro.config.TimingConfig.calibrate` — not the full
live-in/live-out payload, which can be arbitrarily large and is already
summarized by the task's trace record.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import IO, Iterable, List, Union

from repro.mssp.runtime.events import RuntimeEvent
from repro.mssp.trace import (
    MasterFailureRecord,
    RecoveryRecord,
    TaskAttemptRecord,
)

__all__ = ["TaskSketch", "export_events", "import_events"]

#: kind -> event class, for rebuilding events on import.
EVENT_TYPES = {cls.kind: cls for cls in RuntimeEvent.__subclasses__()}

_RECORD_TAGS = {
    TaskAttemptRecord: "task",
    RecoveryRecord: "recovery",
    MasterFailureRecord: "master-failure",
}
_RECORD_TYPES = {tag: cls for cls, tag in _RECORD_TAGS.items()}


@dataclass
class TaskSketch:
    """The measurable shadow of a task on an imported trace."""

    tid: int = -1
    n_instrs: int = 0
    n_loads: int = 0
    exec_seconds: float = 0.0


def _encode_value(value):
    cls = type(value)
    if cls in _RECORD_TAGS:
        encoded = dataclasses.asdict(value)
        encoded["__record__"] = _RECORD_TAGS[cls]
        return encoded
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return value
    # Anything else (the live Task on task_executed) exports as a sketch.
    return {
        "__task__": True,
        "tid": int(getattr(value, "tid", -1)),
        "n_instrs": int(getattr(value, "n_instrs", 0)),
        "n_loads": int(getattr(value, "n_loads", 0)),
        "exec_seconds": float(getattr(value, "exec_seconds", 0.0)),
    }


def _decode_value(value):
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        if value.get("__task__"):
            return TaskSketch(
                tid=value.get("tid", -1),
                n_instrs=value.get("n_instrs", 0),
                n_loads=value.get("n_loads", 0),
                exec_seconds=value.get("exec_seconds", 0.0),
            )
        tag = value.get("__record__")
        if tag is not None:
            record_cls = _RECORD_TYPES.get(tag)
            if record_cls is None:
                raise ValueError(f"unknown trace record tag {tag!r}")
            fields = {
                k: _decode_value(v)
                for k, v in value.items()
                if k != "__record__"
            }
            return record_cls(**fields)
    return value


def event_to_dict(event: RuntimeEvent) -> dict:
    """One event as a JSON-ready dict (kind + stamps + fields)."""
    encoded = {"kind": event.kind, "at": event.at, "actor": event.actor}
    for f in dataclasses.fields(event):
        encoded[f.name] = _encode_value(getattr(event, f.name))
    return encoded


def event_from_dict(data: dict) -> RuntimeEvent:
    """Rebuild (and re-stamp) one event from its exported dict."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r} in trace")
    at = data.pop("at", 0.0)
    actor = data.pop("actor", "")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown fields {sorted(unknown)} for event kind {kind!r}"
        )
    event = cls(**{k: _decode_value(v) for k, v in data.items()})
    object.__setattr__(event, "at", at)
    object.__setattr__(event, "actor", actor)
    return event


def export_events(
    events: Iterable[RuntimeEvent], out: Union[str, IO[str]]
) -> int:
    """Write ``events`` as JSONL; returns the number written."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as handle:
            return export_events(events, handle)
    count = 0
    for event in events:
        json.dump(event_to_dict(event), out, sort_keys=True)
        out.write("\n")
        count += 1
    return count


def import_events(source: Union[str, IO[str]]) -> List[RuntimeEvent]:
    """Read a JSONL trace back into stamped events.

    Malformed input raises ``ValueError`` naming its line:
    ``trace line N: ...``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return import_events(handle)
    events: List[RuntimeEvent] = []
    for line_no, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError("an event must be a JSON object")
            events.append(event_from_dict(data))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"trace line {line_no}: not valid JSON: {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            # TypeError: the event's constructor rejected its fields.
            raise ValueError(f"trace line {line_no}: {exc}") from None
    return events
