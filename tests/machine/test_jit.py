"""Differential tests: the superblock JIT vs the pre-decoded engine.

:mod:`repro.machine.jit` compiles hot basic-block chains to generated
Python.  Its contract is *bit-identical observable behaviour* with the
pre-decoded engine (itself held identical to the semantic oracle by
tests/machine/test_decoded.py): same final states, same step counts,
same ``StepLimitExceeded`` boundary, with every guard (observer runs
kept off the JIT, budget entry/back-edge checks, non-leader pcs)
exercised explicitly.
Also covers the persistent code cache (a second process must reuse the
generated sources, not re-trace) and the ``REPRO_EXEC`` tier plumbing.
"""

import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.errors import StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine import jit as jit_mod
from repro.machine.decoded import decode
from repro.machine.interpreter import run
from repro.machine.jit import (
    EXEC_TIERS,
    JitProgram,
    block_leaders,
    jit_cache_key,
    jit_for,
    resolve_exec_tier,
)
from repro.machine.state import ArchState

#: A program whose inner loop runs hot enough to compile at the default
#: threshold, with a subroutine (jal/jr), memory traffic, a ZERO-dest
#: write, and a forward branch — every codegen shape in one fixture.
HOT_FIXTURE = """
        .data
acc:    .word 0
        .text
main:   li r1, 40
        li r2, 0
loop:   add r2, r2, r1
        andi r3, r1, 3
        bne r3, r0, skip
        jal leaf
skip:   sw r2, acc(r0)
        lw r4, acc(r0)
        sll r0, r4, r1      # folded: writes the ZERO register
        addi r1, r1, -1
        bne r1, r0, loop
        halt
leaf:   addi r2, r2, 7
        jr r31
"""


def hot_jit(program):
    """A JitProgram that compiles on first arrival, no disk persistence."""
    return JitProgram(program, threshold=1, persist=False)


def assert_jit_equivalent(program, max_steps=1_000_000):
    """JIT run == decoded run == oracle run, states and counts alike."""
    ref_state = ArchState.initial(program)
    ref = decode(program).run(ref_state, max_steps)

    jp = hot_jit(program)
    jit_state = ArchState.initial(program)
    assert jp.run(jit_state, max_steps) == ref
    assert jit_state == ref_state

    oracle_state = ArchState.initial(program)
    assert decode(program, oracle=True).run(oracle_state, max_steps) == ref
    assert oracle_state == ref_state
    return jp


class TestDifferentialFixtures:
    def test_hot_fixture_equivalent_and_compiled(self):
        jp = assert_jit_equivalent(assemble(HOT_FIXTURE))
        # The test is vacuous unless regions actually ran.
        assert jp.compiled, "the hot loop must have compiled"

    def test_every_workload_boot_run_equivalent(self):
        from repro.workloads import WORKLOADS, get_workload

        for name in WORKLOADS:
            spec = get_workload(name)
            program = spec.instance(max(4, spec.default_size // 10)).program
            jp = assert_jit_equivalent(program, max_steps=2_000_000)
            assert jp.compiled, f"workload {name} never went hot"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            JitProgram(assemble(HOT_FIXTURE), mode="turbo")


class TestStepLimitBoundary:
    def test_budget_fires_at_identical_instruction_every_cut(self):
        """Sweep the budget across the whole run: cuts that land inside a
        superblock must deopt to the per-step path and stop at exactly
        the decoded engine's instruction."""
        program = assemble(HOT_FIXTURE)
        total = decode(program).run(ArchState.initial(program), 10_000)[0]
        assert total > 100
        jp = hot_jit(program)
        for limit in range(1, total + 1, 7):
            decoded_state = ArchState.initial(program)
            with pytest.raises(StepLimitExceeded):
                decode(program).run(decoded_state, limit)
            jit_state = ArchState.initial(program)
            with pytest.raises(StepLimitExceeded):
                jp.run(jit_state, limit)
            assert jit_state == decoded_state

    def test_budget_one_past_halt_still_halts(self):
        program = assemble(HOT_FIXTURE)
        total, halted = decode(program).run(
            ArchState.initial(program), 10_000
        )
        assert halted
        state = ArchState.initial(program)
        assert hot_jit(program).run(state, total + 1) == (total, True)


class TestDeopt:
    def test_observer_deopts_to_per_step_and_matches(self, monkeypatch):
        """Under the jit tier, ``interpreter.run`` with an observer takes
        the decoded per-step loop: the effect stream is identical, and
        no JitProgram is ever attached to the program."""
        program = assemble(HOT_FIXTURE)

        def traced(tier):
            monkeypatch.setenv("REPRO_EXEC", tier)
            trace = []
            state = ArchState.initial(program)
            result = run(
                program, state, max_steps=1_000_000,
                observer=lambda pc, instr, effect, state: trace.append(
                    (pc, effect.halted, effect.taken, effect.mem_addr)
                ),
            )
            return (result.steps, result.halted), state, trace

        assert traced("jit") == traced("decoded")
        assert "_jit_cache" not in program.__dict__

    def test_non_leader_pcs_never_compile(self):
        program = assemble(HOT_FIXTURE)
        jp = hot_jit(program)
        jp.run(ArchState.initial(program), 1_000_000)
        for pc in range(len(program.code)):
            if pc not in jp.leaders:
                for _ in range(jp.threshold + 1):
                    assert jp.region_for(pc) is None

    def test_cold_code_stays_uncompiled_below_threshold(self):
        program = assemble(HOT_FIXTURE)
        jp = JitProgram(program, threshold=1_000_000, persist=False)
        state = ArchState.initial(program)
        ref_state = ArchState.initial(program)
        assert jp.run(state, 1_000_000) == decode(program).run(
            ref_state, 1_000_000
        )
        assert state == ref_state
        assert not jp.compiled


class TestDifferentialRandom:
    @settings(max_examples=40, deadline=None)
    @given(terminating_programs())
    def test_random_programs_equivalent(self, program):
        assert_jit_equivalent(program)

    @settings(max_examples=15, deadline=None)
    @given(terminating_programs())
    def test_random_step_limit_cuts_identical(self, program):
        total, halted = decode(program).run(
            ArchState.initial(program), 1_000_000
        )
        assert halted
        jp = hot_jit(program)
        cuts = sorted({1, 2, 3, max(1, total // 3), max(1, total - 1), total})
        for limit in cuts:
            decoded_state = ArchState.initial(program)
            jit_state = ArchState.initial(program)
            if limit >= total:
                assert jp.run(jit_state, limit + 1) == (total, True)
                continue
            with pytest.raises(StepLimitExceeded):
                decode(program).run(decoded_state, limit)
            with pytest.raises(StepLimitExceeded):
                jp.run(jit_state, limit)
            assert jit_state == decoded_state


class TestRegionMetadata:
    def test_regions_round_trip_their_trace_and_source(self):
        """JIT002's invariant: every compiled region's metadata must be
        re-derivable from the program — same trace, same source."""
        program = assemble(HOT_FIXTURE)
        jp = hot_jit(program)
        jp.run(ArchState.initial(program), 1_000_000)
        assert jp.compiled
        for entry, region in jp.compiled.items():
            assert region.entry == entry
            assert entry in jp.leaders
            pcs, taken = jp.trace(entry)
            assert region.pcs == pcs
            assert region.taken == taken
            assert region.linear_len == len(region.pcs)
            assert region.source == jp.generate_source(entry)
            assert region.mode == jp.mode

    def test_generate_source_is_deterministic(self):
        program = assemble(HOT_FIXTURE)
        a, b = hot_jit(program), hot_jit(program)
        for entry in sorted(a.leaders):
            assert a.generate_source(entry) == b.generate_source(entry)

    def test_block_leaders_cover_entry_and_targets(self):
        program = assemble(HOT_FIXTURE)
        leaders = block_leaders(program)
        assert program.entry in leaders
        assert 0 in leaders
        for pc, instr in enumerate(program.code):
            target = instr.target
            if instr.op.name != "FORK" and isinstance(target, int):
                if 0 <= target < len(program.code):
                    assert target in leaders
            if instr.is_terminator and pc + 1 < len(program.code):
                assert pc + 1 in leaders


#: Two regions bouncing through an always-taken branch: the canonical
#: link-promotion shape.  The branch at the end of the ``loop`` block is
#: taken on every iteration, so the loop→hot exit transits consecutively
#: and fuses; the fall-through ``addi r2, r2, 999`` is dead code the
#: fused trace skips entirely.
LINK_FIXTURE = """
        .text
main:   li r1, 300
        li r2, 0
loop:   addi r2, r2, 1
        bne r1, r0, hot
        addi r2, r2, 999
hot:    addi r1, r1, -1
        bne r1, r0, loop
        halt
"""

#: A rarely-taken branch (1 in 64 iterations): with a link threshold of
#: one, the first taken occurrence fuses loop+rare — and then the
#: inverted guard misses 63 times out of 64, so link health must tear
#: the fusion back down (demotion) instead of paying the guard-exit
#: dispatch forever.
FALL_BIASED_FIXTURE = """
        .text
main:   li r1, 500
        li r2, 0
loop:   andi r3, r1, 63
        beq r3, r0, rare
        addi r1, r1, -1
        bne r1, r0, loop
        halt
rare:   addi r2, r2, 1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
"""


class TestSuperblockLinking:
    def test_hot_exit_promotes_into_fused_region(self):
        """Consecutive same-target transits fuse the target's trace into
        the source region — and the fused run stays bit-identical."""
        program = assemble(LINK_FIXTURE)
        ref_state = ArchState.initial(program)
        ref = decode(program).run(ref_state, 100_000)
        jp = JitProgram(program, threshold=1, persist=False)
        state = ArchState.initial(program)
        assert jp.run(state, 100_000) == ref
        assert state == ref_state
        assert jp.stats["link_transits"] > 0
        assert jp.stats["link_promotions"] >= 1
        assert jp.stats["fused_regions"] >= 1
        fused = [r for r in jp.compiled.values() if r.links]
        assert fused
        for region in fused:
            for target in region.links:
                assert target in region.pcs
            assert region.taken, "a fused trace follows at least one branch"

    def test_fall_biased_link_is_demoted(self):
        """An unhealthy link (guard misses outgrowing internal loop
        passes) is torn down, never re-promoted, and the run stays
        bit-identical through promote, demote, and recompile."""
        program = assemble(FALL_BIASED_FIXTURE)
        ref_state = ArchState.initial(program)
        ref = decode(program).run(ref_state, 100_000)
        jp = JitProgram(
            program, threshold=1, persist=False, link_threshold=1
        )
        state = ArchState.initial(program)
        assert jp.run(state, 100_000) == ref
        assert state == ref_state
        assert jp.stats["link_promotions"] >= 1
        assert jp.stats["link_demotions"] >= 1
        loop_entry, rare_entry = 2, 7
        # The unhealthy pair specifically is gone and blacklisted (no
        # promotion flip-flopping); other, healthy fusions may remain.
        assert rare_entry not in jp.links.get(loop_entry, set())
        assert (loop_entry, rare_entry) in jp._no_extend

    def test_invalidate_mid_run_tears_links_down_safely(self):
        """Forced deopt while a linked superblock is hot: invalidate the
        fused region mid-run, resume on the torn-down cache, and reach
        the identical final state."""
        program = assemble(LINK_FIXTURE)
        ref_state = ArchState.initial(program)
        total, halted = decode(program).run(ref_state, 100_000)
        assert halted
        jp = JitProgram(
            program, threshold=1, persist=False, link_threshold=1
        )
        state = ArchState.initial(program)
        with pytest.raises(StepLimitExceeded):
            jp.run(state, total // 2)
        assert jp.stats["link_promotions"] >= 1
        fused = [e for e, r in jp.compiled.items() if r.links]
        assert fused
        for entry in fused:
            jp.invalidate(entry)
        assert jp.stats["fused_regions"] == 0
        resumed_steps, resumed_halt = jp.run(state, 100_000)
        assert resumed_halt
        assert resumed_steps == total - total // 2
        assert state == ref_state

    def test_trace_with_links_follows_the_promoted_branch(self):
        program = assemble(LINK_FIXTURE)
        jp = JitProgram(program, threshold=1, persist=False)
        loop_entry = 2  # first pc of the ``loop`` block
        plain_pcs, plain_taken = jp.trace(loop_entry)
        assert not plain_taken
        hot_entry = 5  # first pc of the ``hot`` block
        fused_pcs, fused_taken = jp.trace(
            loop_entry, frozenset({hot_entry})
        )
        assert hot_entry in fused_pcs
        assert fused_taken
        # Dead fall-through of the followed branch is not in the trace.
        assert 4 not in fused_pcs


class TestPersistentCodeCache:
    def test_second_jit_program_reuses_stored_sources(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        program = assemble(HOT_FIXTURE)
        first = JitProgram(program, threshold=1, persist=True)
        ref_state = ArchState.initial(program)
        ref = first.run(ref_state, 1_000_000)
        assert first.compiled

        # A fresh Program object with the same content (as a worker
        # process would unpickle) must come up warm: regions compiled
        # before a single instruction runs, from the stored sources.
        twin = pickle.loads(pickle.dumps(program))
        assert "_jit_cache" not in twin.__dict__
        second = JitProgram(twin, threshold=1_000_000, persist=True)
        assert set(second.compiled) == set(first.compiled)
        for entry, region in second.compiled.items():
            assert region.source == first.compiled[entry].source
            assert region.pcs == first.compiled[entry].pcs

        twin_state = ArchState.initial(twin)
        assert second.run(twin_state, 1_000_000) == ref
        assert twin_state == ref_state

    def test_cache_off_disables_persistence(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "off")
        program = assemble(HOT_FIXTURE)
        first = JitProgram(program, threshold=1, persist=True)
        first.run(ArchState.initial(program), 1_000_000)
        assert first.compiled
        second = JitProgram(
            pickle.loads(pickle.dumps(program)),
            threshold=1_000_000, persist=True,
        )
        assert not second.compiled

    def test_cache_key_separates_mode_content_and_schema(self, monkeypatch):
        program = assemble(HOT_FIXTURE)
        other = assemble(HOT_FIXTURE.replace("li r1, 40", "li r1, 41"))
        key = jit_cache_key(program, "arch")
        assert key != jit_cache_key(program, "master")
        assert key != jit_cache_key(other, "arch")
        assert key == jit_cache_key(
            pickle.loads(pickle.dumps(program)), "arch"
        )  # content-addressed: object identity is irrelevant
        monkeypatch.setattr(jit_mod, "JIT_SCHEMA", jit_mod.JIT_SCHEMA + 1)
        assert key != jit_cache_key(program, "arch")

    def test_corrupt_cache_entry_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        program = assemble(HOT_FIXTURE)
        from repro.experiments import cache

        cache.store(
            "jitcode", jit_cache_key(program, "arch"),
            {0: {"source": "def _region_0(:\n", "pcs": [0]}},
        )
        jp = JitProgram(program, threshold=1, persist=True)
        assert not jp.compiled  # the broken source was skipped
        assert_jit_equivalent(program)


class TestJitForCache:
    def test_cached_per_program_identity_and_mode(self):
        program = assemble(HOT_FIXTURE)
        assert jit_for(program) is jit_for(program)
        assert jit_for(program, "master") is jit_for(program, "master")
        assert jit_for(program) is not jit_for(program, "master")
        twin = assemble(HOT_FIXTURE)
        assert jit_for(twin) is not jit_for(program)

    def test_pickle_excludes_jit_cache(self):
        program = assemble(HOT_FIXTURE)
        jit_for(program)
        revived = pickle.loads(pickle.dumps(program))
        assert "_jit_cache" not in revived.__dict__
        assert revived == program


class TestExecTierPlumbing:
    def test_resolve_defaults_to_decoded(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert resolve_exec_tier() == "decoded"

    def test_resolve_reads_env_with_normalization(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "  JIT ")
        assert resolve_exec_tier() == "jit"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "jit")
        assert resolve_exec_tier("oracle") == "oracle"

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "warp")
        with pytest.raises(ValueError):
            resolve_exec_tier()
        with pytest.raises(ValueError):
            resolve_exec_tier("turbo")

    @pytest.mark.parametrize("tier", EXEC_TIERS)
    def test_interpreter_run_identical_under_every_tier(
        self, monkeypatch, tier
    ):
        program = assemble(HOT_FIXTURE)
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        ref_state = ArchState.initial(program)
        ref = run(program, ref_state, max_steps=1_000_000)
        monkeypatch.setenv("REPRO_EXEC", tier)
        state = ArchState.initial(program)
        result = run(program, state, max_steps=1_000_000)
        assert (result.steps, result.halted) == (ref.steps, ref.halted)
        assert state == ref_state


class TestZeroRegisterFolding:
    def test_zero_writes_folded_in_generated_code(self):
        program = assemble(
            ".text\nmain: li r1, 64\nloop: add r0, r1, r1\n lw r0, 0(r1)\n"
            " li r0, 9\n mov r0, r1\n addi r1, r1, -1\n"
            " bne r1, r0, loop\n halt\n"
        )
        jp = assert_jit_equivalent(program)
        assert jp.compiled
        state = ArchState.initial(program)
        jp.run(state, 1_000_000)
        assert state.read_reg(0) == 0
