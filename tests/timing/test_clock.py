"""Tests for the clock seam: Clock protocol, VirtualClock, event stamps."""

import time

import pytest

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.isa.asm import assemble
from repro.mssp.engine import create_engine
from repro.mssp.runtime.events import EventBus, TaskForked
from repro.profiling import profile_program
from repro.timing.clock import Clock, VirtualClock, WallClock

SOURCE = """
main:   li r1, 150
loop:   addi r1, r1, -1
        add r2, r2, r1
        lw r3, 500(zero)
        add r2, r2, r3
        bne r1, zero, loop
        sw r2, 0x900(zero)
        halt
        .data 500
        .word 3
"""


@pytest.fixture(scope="module")
def prepared():
    program = assemble(SOURCE)
    profile = profile_program(program)
    distillation = Distiller(DistillConfig(target_task_size=25)).distill(
        program, profile
    )
    return program, distillation


class TestClocks:
    def test_wall_clock_advances(self):
        clock = WallClock()
        first = clock.now()
        time.sleep(0.001)
        assert clock.now() > first

    def test_virtual_clock_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_virtual_clock_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        clock.advance(0.5)
        assert clock.now() == 3.0

    def test_virtual_clock_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_virtual_clock_advance_to_never_rewinds(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        clock.advance_to(4.0)
        assert clock.now() == 10.0

    def test_both_satisfy_protocol(self):
        assert isinstance(WallClock(), Clock)
        assert isinstance(VirtualClock(), Clock)


class TestEventStamping:
    def test_emit_stamps_time_and_actor(self):
        bus = EventBus(clock=VirtualClock(), actor="test-actor")
        bus.clock.advance(7.0)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(TaskForked(tid=0, start_pc=0, end_pc=None))
        assert seen[0].at == 7.0
        assert seen[0].actor == "test-actor"

    def test_emit_preserves_producer_actor(self):
        bus = EventBus(actor="bus")
        event = TaskForked(tid=0, start_pc=0, end_pc=None)
        object.__setattr__(event, "actor", "producer")
        bus.emit(event)
        assert event.actor == "producer"

    def test_unemitted_events_read_time_zero(self):
        event = TaskForked(tid=0, start_pc=0, end_pc=None)
        assert event.at == 0.0
        assert event.actor == ""

    def test_stamps_do_not_affect_equality(self):
        a = TaskForked(tid=1, start_pc=2, end_pc=3)
        b = TaskForked(tid=1, start_pc=2, end_pc=3)
        EventBus(clock=VirtualClock()).emit(a)
        assert a == b

    def test_wall_stamps_monotone(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        for tid in range(50):
            bus.emit(TaskForked(tid=tid, start_pc=0, end_pc=None))
        stamps = [event.at for event in seen]
        assert stamps == sorted(stamps)


class TestEngineClock:
    def test_eager_engine_gets_a_wall_clock(self, prepared):
        program, distillation = prepared
        with create_engine(
            program, distillation, MsspConfig(runtime="eager")
        ) as engine:
            engine.run()
        assert isinstance(engine.clock, WallClock)

    def test_injected_clock_stamps_every_event(self, prepared):
        program, distillation = prepared
        clock = VirtualClock(start=42.0)
        with create_engine(
            program, distillation, MsspConfig(runtime="eager"), clock=clock
        ) as engine:
            assert engine.clock is clock
            seen = []
            engine.events.subscribe(seen.append)
            engine.run()
        assert seen and all(event.at == 42.0 for event in seen)
