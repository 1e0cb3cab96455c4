"""Tests for the static soundness checker (``repro.analysis.checker``).

The seeded-mutation tests are the checker's own acceptance suite: each
corrupts one artifact in one specific way (a branch target, a fork's
live-in set, a pc-map entry) and asserts the checker flags it with the
*right* check ID — not merely that it complains.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.checker import (
    APPROXIMATION_SQUASH_REASONS,
    CHECKS,
    SOUND_SQUASH_REASONS,
    Severity,
    check_code,
    check_decoded,
    check_distillation,
    check_ir,
    check_jit,
    check_program,
    check_runtime_events,
    check_runtime_execution,
    predicted_squash_reasons,
)
from repro.analysis.dominators import DominatorTree
from repro.analysis.liveness import compute_liveness
from repro.analysis.loops import find_loops
from repro.config import DistillConfig
from repro.distill.distiller import PASS_INVARIANTS, Distiller
from repro.distill.ir import lift_to_ir
from repro.distill.passes.fork_placement import run_fork_placement
from repro.distill.pc_map import PcMap
from repro.errors import CheckFailure
from repro.isa.asm import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import ZERO
from repro.profiling import profile_program
from tests.distill.conftest import RICH_SOURCE


@pytest.fixture
def rich_program():
    return assemble(RICH_SOURCE, name="rich")


@pytest.fixture
def rich_profile(rich_program):
    return profile_program(rich_program)


def error_ids(report):
    return {f.check_id for f in report.errors}


def warning_ids(report):
    return {f.check_id for f in report.warnings}


# -- layer 1: flat programs -------------------------------------------------


class TestCheckProgram:
    def test_clean_program_has_no_errors(self, rich_program):
        report = check_program(rich_program)
        assert report.ok
        assert not report.errors

    def test_empty_code_is_prog003(self):
        report = check_code([])
        assert error_ids(report) == {"PROG003"}

    def test_entry_out_of_range_is_prog001(self):
        code = [Instruction(op=Opcode.HALT)]
        report = check_code(code, entry=5)
        assert error_ids(report) == {"PROG001"}

    def test_corrupt_branch_target_is_prog001(self, rich_program):
        # Seeded mutation: retarget one conditional branch past the text.
        code = list(rich_program.code)
        branch_pc = next(
            pc for pc, i in enumerate(code) if i.is_branch
        )
        code[branch_pc] = code[branch_pc].with_target(len(code) + 40)
        report = check_code(code, rich_program.entry)
        assert "PROG001" in error_ids(report)
        assert any(
            f.check_id == "PROG001" and f.pc == branch_pc
            for f in report.errors
        )

    def test_symbolic_target_is_prog002(self):
        code = [
            Instruction(op=Opcode.J, target="label"),
            Instruction(op=Opcode.HALT),
        ]
        report = check_code(code)
        assert "PROG002" in error_ids(report)

    def test_fall_off_end_is_prog003(self):
        code = [Instruction(op=Opcode.ADDI, rd=1, rs=1, imm=1)]
        report = check_code(code)
        assert "PROG003" in error_ids(report)

    def test_may_undefined_read_is_prog004_warning(self):
        code = [
            Instruction(op=Opcode.ADD, rd=1, rs=2, rt=3),
            Instruction(op=Opcode.HALT),
        ]
        report = check_code(code)
        assert report.ok  # warnings only
        assert warning_ids(report) == {"PROG004"}
        flagged = {f.pc for f in report.warnings}
        assert flagged == {0}

    def test_defined_on_every_path_is_clean(self):
        # r1 is written on both branch arms before the merged read.
        code = [
            Instruction(op=Opcode.BEQ, rs=ZERO, rt=ZERO, target=3),
            Instruction(op=Opcode.LI, rd=1, imm=1),
            Instruction(op=Opcode.J, target=4),
            Instruction(op=Opcode.LI, rd=1, imm=2),
            Instruction(op=Opcode.ADD, rd=2, rs=1, rt=1),
            Instruction(op=Opcode.HALT),
        ]
        report = check_code(code)
        assert not report.findings

    def test_unreachable_code_is_prog005_warning(self):
        code = [
            Instruction(op=Opcode.HALT),
            Instruction(op=Opcode.ADDI, rd=1, rs=1, imm=1),
            Instruction(op=Opcode.ADDI, rd=1, rs=1, imm=1),
        ]
        report = check_code(code)
        assert report.ok
        assert "PROG005" in warning_ids(report)
        dead = next(f for f in report.warnings if f.check_id == "PROG005")
        assert dead.pc == 1 and "pcs 1-2" in dead.message

    def test_jal_at_last_pc_is_prog006(self):
        code = [Instruction(op=Opcode.JAL, target=0)]
        report = check_code(code)
        assert "PROG006" in error_ids(report)

    def test_no_reachable_halt_is_prog007_warning(self):
        code = [Instruction(op=Opcode.J, target=0)]
        report = check_code(code)
        assert report.ok
        assert "PROG007" in warning_ids(report)

    def test_blind_jr_is_prog008_warning(self):
        code = [Instruction(op=Opcode.JR, rs=1), Instruction(op=Opcode.HALT)]
        report = check_code(code)
        assert "PROG008" in warning_ids(report)
        # A jr table entry supplies the landing site: warning disappears.
        report = check_code(code, jr_targets=[1])
        assert "PROG008" not in warning_ids(report)

    def test_render_mentions_check_id(self):
        report = check_code([Instruction(op=Opcode.J, target="x")])
        text = report.render()
        assert "PROG002" in text and "FAIL" in text


# -- layer 2: the distiller IR ---------------------------------------------


def _ir_with_forks(program, profile, target_task_size=40):
    cfg = build_cfg(program)
    domtree = DominatorTree(cfg)
    loops = find_loops(cfg, domtree)
    liveness = compute_liveness(cfg)
    ir = lift_to_ir(program, cfg)
    config = dataclasses.replace(
        DistillConfig(), target_task_size=target_task_size
    )
    stats = run_fork_placement(ir, profile, cfg, loops, liveness, config)
    assert stats.anchors, "fixture program must earn at least one anchor"
    return ir, cfg, liveness


def _find_fork(ir):
    for block in ir.blocks:
        for dinstr in block.instrs:
            if dinstr.instr.op is Opcode.FORK:
                return block, dinstr
    raise AssertionError("no fork in IR")


class TestCheckIr:
    def test_lifted_ir_is_clean(self, rich_program):
        ir = lift_to_ir(rich_program, build_cfg(rich_program))
        report = check_ir(ir)
        assert report.ok

    def test_ir_with_forks_is_clean(self, rich_program, rich_profile):
        ir, _, _ = _ir_with_forks(rich_program, rich_profile)
        assert check_ir(ir, pass_name="fork_placement").ok

    def test_duplicate_block_name_is_ir001(self, rich_program):
        ir = lift_to_ir(rich_program, build_cfg(rich_program))
        ir.blocks.append(ir.blocks[0])
        assert "IR001" in error_ids(check_ir(ir))

    def test_missing_entry_is_ir002(self, rich_program):
        ir = lift_to_ir(rich_program, build_cfg(rich_program))
        ir.entry_name = "nonexistent"
        assert "IR002" in error_ids(check_ir(ir))

    def test_dangling_fallthrough_is_ir003(self, rich_program):
        ir = lift_to_ir(rich_program, build_cfg(rich_program))
        victim = next(b for b in ir.blocks if b.fallthrough is not None)
        victim.fallthrough = "__nope__"
        report = check_ir(ir)
        assert "IR003" in error_ids(report)
        assert any(f.block == victim.name for f in report.errors)

    def test_corrupt_orig_pc_is_ir005(self, rich_program):
        ir = lift_to_ir(rich_program, build_cfg(rich_program))
        block = next(b for b in ir.blocks if b.instrs)
        block.instrs[0].orig_pc = len(rich_program.code) + 7
        assert "IR005" in error_ids(check_ir(ir))

    def test_dropped_fork_live_in_is_ir006(self, rich_program, rich_profile):
        # Seeded mutation: strip one anchor-live register from a fork's
        # use set — the exact bug that would let DCE delete a live-in
        # producer the slaves depend on.
        ir, cfg, liveness = _ir_with_forks(rich_program, rich_profile)
        block, fork = _find_fork(ir)
        anchor = int(fork.instr.target)
        required = {
            reg
            for reg in liveness.live_in[cfg.block_of_pc[anchor]]
            if reg != ZERO
        }
        assert required, "anchor must have live-in registers"
        dropped = sorted(required)[0]
        fork.uses_override = frozenset(fork.uses_override - {dropped})
        report = check_ir(ir)
        assert "IR006" in error_ids(report)
        finding = next(f for f in report.errors if f.check_id == "IR006")
        assert f"r{dropped}" in finding.message
        assert finding.orig_pc == anchor

    def test_missing_fork_use_set_is_ir006(self, rich_program, rich_profile):
        ir, _, _ = _ir_with_forks(rich_program, rich_profile)
        _, fork = _find_fork(ir)
        fork.uses_override = None
        assert "IR006" in error_ids(check_ir(ir))

    def test_duplicate_anchor_is_ir009(self, rich_program, rich_profile):
        ir, _, _ = _ir_with_forks(rich_program, rich_profile)
        block, fork = _find_fork(ir)
        block.instrs.insert(0, fork)
        assert "IR009" in error_ids(check_ir(ir))

    def test_non_leader_anchor_is_ir010(self, rich_program, rich_profile):
        ir, cfg, _ = _ir_with_forks(rich_program, rich_profile)
        _, fork = _find_fork(ir)
        anchor = int(fork.instr.target)
        mid_block = anchor + 1
        assert cfg.block_at(mid_block).start != mid_block
        fork.instr = fork.instr.with_target(mid_block)
        assert "IR010" in error_ids(check_ir(ir))


# -- layer 3: the distilled artifact and its pc map -------------------------


@pytest.fixture
def rich_distillation(rich_program, rich_profile):
    return Distiller().distill(rich_program, rich_profile)


def _replace_map(pc_map, **kwargs):
    return PcMap(
        resume=kwargs.get("resume", dict(pc_map.resume)),
        entry_orig=kwargs.get("entry_orig", pc_map.entry_orig),
        arrival=kwargs.get("arrival", dict(pc_map.arrival)),
        jr_table=kwargs.get("jr_table", dict(pc_map.jr_table)),
    )


def _an_anchor(distillation):
    """An anchor that is a real fork site (not the entry fallback)."""
    return sorted(distillation.pc_map.arrival)[0]


class TestCheckDistillation:
    def test_real_distillation_is_clean(self, rich_program, rich_distillation):
        report = check_distillation(
            rich_program,
            rich_distillation.distilled,
            rich_distillation.pc_map,
        )
        assert report.ok, report.render()

    def test_skewed_resume_is_map002(self, rich_program, rich_distillation):
        # Seeded mutation: shift one anchor's resume pc off its fork.
        pc_map = rich_distillation.pc_map
        anchor = _an_anchor(rich_distillation)
        resume = dict(pc_map.resume)
        resume[anchor] += 1
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, resume=resume),
        )
        assert "MAP002" in error_ids(report)

    def test_skewed_arrival_is_map003(self, rich_program, rich_distillation):
        pc_map = rich_distillation.pc_map
        anchor = _an_anchor(rich_distillation)
        arrival = dict(pc_map.arrival)
        arrival[anchor] += 1
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, arrival=arrival),
        )
        assert "MAP003" in error_ids(report)

    def test_bogus_jr_entry_is_map004(self, rich_program, rich_distillation):
        pc_map = rich_distillation.pc_map
        jr_table = dict(pc_map.jr_table)
        jr_table[5] = 0  # no block B5 survived layout at pc 0
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, jr_table=jr_table),
        )
        assert "MAP004" in error_ids(report)

    def test_unmapped_fork_is_map005(self, rich_program, rich_distillation):
        pc_map = rich_distillation.pc_map
        anchor = _an_anchor(rich_distillation)
        resume = {k: v for k, v in pc_map.resume.items() if k != anchor}
        resume.setdefault(
            pc_map.entry_orig, rich_distillation.distilled.entry
        )
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, resume=resume),
        )
        assert "MAP005" in error_ids(report)

    def test_wrong_entry_is_map006(self, rich_program, rich_distillation):
        pc_map = rich_distillation.pc_map
        anchor = _an_anchor(rich_distillation)
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, entry_orig=anchor),
        )
        assert "MAP006" in error_ids(report)

    def test_resume_out_of_range_is_map001(
        self, rich_program, rich_distillation
    ):
        pc_map = rich_distillation.pc_map
        anchor = _an_anchor(rich_distillation)
        resume = dict(pc_map.resume)
        resume[anchor] = 9999
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, resume=resume),
        )
        assert "MAP001" in error_ids(report)

    def test_anchor_out_of_range_is_map007(
        self, rich_program, rich_distillation
    ):
        pc_map = rich_distillation.pc_map
        resume = dict(pc_map.resume)
        resume[9999] = 1
        report = check_distillation(
            rich_program, rich_distillation.distilled,
            _replace_map(pc_map, resume=resume),
        )
        assert "MAP007" in error_ids(report)


# -- the distiller's verify_after_each_pass mode ----------------------------


class TestVerifyAfterEachPass:
    def test_clean_distillation_passes(self, rich_program, rich_profile):
        config = dataclasses.replace(
            DistillConfig(), verify_after_each_pass=True
        )
        result = Distiller(config).distill(rich_program, rich_profile)
        assert result.distilled.code

    def test_corrupting_pass_raises_checkfailure(
        self, rich_program, rich_profile, monkeypatch
    ):
        import repro.distill.distiller as distiller_module

        real_dce = distiller_module.run_dce

        def corrupting_dce(ir, config):
            stats = real_dce(ir, config)
            ir.blocks[0].fallthrough = "__nope__"
            return stats

        monkeypatch.setattr(distiller_module, "run_dce", corrupting_dce)
        config = dataclasses.replace(
            DistillConfig(), verify_after_each_pass=True
        )
        with pytest.raises(CheckFailure) as excinfo:
            Distiller(config).distill(rich_program, rich_profile)
        failure = excinfo.value
        assert failure.pass_name == "dce"
        assert any(f.check_id == "IR003" for f in failure.findings)
        assert "IR003" in str(failure)

    def test_off_by_default(self, rich_program, rich_profile, monkeypatch):
        import repro.distill.distiller as distiller_module

        real_dce = distiller_module.run_dce

        def corrupting_dce(ir, config):
            stats = real_dce(ir, config)
            # Harmless in practice (layout never reads it back), but the
            # checker would flag it; default mode must not.
            for block in ir.blocks:
                if block.instrs:
                    block.instrs[0].orig_pc = 10_000
                    break
            return stats

        monkeypatch.setattr(distiller_module, "run_dce", corrupting_dce)
        Distiller().distill(rich_program, rich_profile)  # no raise


# -- static squash prediction ----------------------------------------------


class TestPredictedSquashReasons:
    def test_approximating_distillation_predicts_data_squashes(
        self, rich_distillation
    ):
        assert (
            predicted_squash_reasons(rich_distillation)
            == APPROXIMATION_SQUASH_REASONS
        )

    def test_exact_distillation_predicts_only_sound_squashes(
        self, rich_program, rich_profile
    ):
        config = dataclasses.replace(
            DistillConfig(),
            enable_value_spec=False,
            enable_store_elim=False,
            enable_branch_removal=False,
            enable_cold_code=False,
        )
        result = Distiller(config).distill(rich_program, rich_profile)
        assert predicted_squash_reasons(result) == SOUND_SQUASH_REASONS


# -- layer 4: the decoded execution engine ----------------------------------


class TestCheckDecoded:
    def test_clean_program_passes(self, rich_program):
        report = check_decoded(rich_program)
        assert report.ok
        assert not report.findings

    def test_distilled_program_passes(self, rich_program, rich_profile):
        result = Distiller(DistillConfig()).distill(
            rich_program, rich_profile
        )
        assert check_decoded(result.distilled).ok

    def test_amnesiac_cache_is_dec001(self, rich_program):
        # Seeded corruption: a cache attachment that forgets every entry
        # makes decode() hand out a fresh decoding per call.
        from repro.machine.decoded import decode

        class Amnesiac(dict):
            def get(self, key, default=None):
                return None

        decode(rich_program)
        object.__setattr__(rich_program, "_decoded_cache", Amnesiac())
        report = check_decoded(rich_program)
        assert "DEC001" in error_ids(report)

    def test_tampered_meta_is_dec002(self, rich_program):
        from repro.machine.decoded import decode

        decoded = decode(rich_program)
        tampered = list(decoded.meta)
        pc = len(tampered) // 2
        tampered[pc] = tampered[pc][:-2] + (99, None)  # wrong fall-through
        decoded.meta = tuple(tampered)
        report = check_decoded(rich_program)
        assert "DEC002" in error_ids(report)
        assert any(
            f.check_id == "DEC002" and f.pc == pc for f in report.errors
        )

    def test_truncated_chains_are_dec003(self, rich_program):
        from repro.machine.decoded import decode

        decoded = decode(rich_program)
        spans = list(decoded.chain_spans)
        victim = next(pc for pc, n in enumerate(spans) if n > 1)
        spans[victim] -= 1
        decoded.chain_spans = tuple(spans)
        report = check_decoded(rich_program)
        assert "DEC003" in error_ids(report)

    def test_wrong_halt_flag_is_dec003(self, rich_program):
        from repro.machine.decoded import decode

        decoded = decode(rich_program)
        flags = list(decoded.chain_halts)
        flags[0] = not flags[0]
        decoded.chain_halts = tuple(flags)
        report = check_decoded(rich_program)
        assert "DEC003" in error_ids(report)

    def test_wrong_chain_load_count_is_dec003(self, rich_program):
        from repro.machine.decoded import decode

        decoded = decode(rich_program)
        loads = list(decoded.chain_loads)
        pc = len(loads) // 2
        loads[pc] += 1
        decoded.chain_loads = tuple(loads)
        report = check_decoded(rich_program)
        assert "DEC003" in error_ids(report)
        assert any(
            f.check_id == "DEC003" and f.pc == pc for f in report.errors
        )

    @staticmethod
    def tamper_chain_table(program, name, pick, change):
        """Rewrite one ``chain_<name>`` entry; returns the pc tampered."""
        from repro.machine.decoded import decode

        decoded = decode(program)
        table = list(getattr(decoded, name))
        pc = next(pc for pc, entry in enumerate(table) if pick(entry))
        table[pc] = change(table[pc])
        setattr(decoded, name, tuple(table))
        return pc

    @pytest.mark.parametrize("name, pick, change", [
        ("chain_reads", lambda regs: len(regs) > 1,
         lambda regs: (regs[1], regs[0]) + regs[2:]),
        ("chain_reads", lambda regs: len(regs) > 0, lambda regs: regs[1:]),
        ("chain_writes", lambda regs: len(regs) > 0, lambda regs: regs[1:]),
    ], ids=["swapped-read-order", "dropped-read", "missing-write"])
    def test_wrong_chain_registers_are_dec003(
        self, rich_program, name, pick, change
    ):
        pc = self.tamper_chain_table(rich_program, name, pick, change)
        report = check_decoded(rich_program)
        assert any(
            f.check_id == "DEC003" and f.pc == pc for f in report.errors
        )


    @pytest.mark.parametrize("table, op, expr, pcs", [
        ("_LOCAL_R3", Opcode.SUB, ("{a} + {b}", "two"), {0, 1}),
        ("_BRANCH_EXPR", Opcode.BLT, "{a} <= {b}", {0, 1, 2}),
    ], ids=["sub-as-add", "blt-as-ble"])
    def test_mutated_chain_expression_is_dec004(
        self, monkeypatch, table, op, expr, pcs
    ):
        # Chains compiled from a mutated expression table, into a fresh
        # chain cache so no correct chain is served from earlier runs.
        from repro.machine import decoded as decoded_module

        monkeypatch.setitem(getattr(decoded_module, table), op, expr)
        monkeypatch.setattr(decoded_module, "_chain_cache", {})
        program = assemble(
            ".text\nmain: li r1, 7\n sub r2, r1, r3\n"
            " blt r3, r3, main\n halt\n"
        )
        report = check_decoded(program)
        assert error_ids(report) == {"DEC004"}
        assert {f.pc for f in report.errors} == pcs

    @staticmethod
    def record_after_body(lines):
        """Move the recording prologue after the body."""
        prologue = [line for line in lines if "live_in[" in line]
        rest = [line for line in lines if "live_in[" not in line]
        return rest + prologue

    @staticmethod
    def drop_first_read(lines):
        """Leave the first live-in register unrecorded."""
        first = next(i for i, line in enumerate(lines) if "live_in[" in line)
        return lines[:first] + lines[first + 1:]

    @pytest.mark.parametrize("mutate, pcs", [
        ("record_after_body", {0}), ("drop_first_read", {0, 1, 2}),
    ])
    def test_mutated_recording_chain_is_dec004(
        self, monkeypatch, mutate, pcs
    ):
        # Recording chains generated with a broken prologue, into a fresh
        # chain cache; the plain chains stay correct.
        from repro.machine import decoded as decoded_module

        chain_source = decoded_module._chain_source
        change = getattr(self, mutate)

        def mutated(pc, span, recording=None):
            source = chain_source(pc, span, recording)
            if recording is None or not recording[0]:
                return source
            return "\n".join(change(source.splitlines())) + "\n"

        monkeypatch.setattr(decoded_module, "_chain_source", mutated)
        monkeypatch.setattr(decoded_module, "_chain_cache", {})
        # Every span but the halt's reads registers; only pc 0's writes
        # one it read (r1), so only there does late recording see a
        # changed value.
        program = assemble(
            ".text\nmain: addi r1, r1, 1\n add r3, r2, r1\n"
            " bne r3, r1, main\n halt\n"
        )
        report = check_decoded(program)
        assert error_ids(report) == {"DEC004"}
        assert {f.pc for f in report.errors} == pcs
        assert all(
            "recording chain" in f.message for f in report.errors
        )


# -- layer 5: the superblock JIT --------------------------------------------


class TestCheckJit:
    def test_clean_program_has_no_errors(self, rich_program):
        report = check_jit(rich_program)
        assert report.ok
        assert not report.findings

    def test_broken_cache_attachment_is_jit001(self, rich_program):
        class Amnesiac(dict):
            """A cache that forgets: every lookup misses."""

            def get(self, key, default=None):
                return None

        rich_program.__dict__["_jit_cache"] = Amnesiac()
        report = check_jit(rich_program)
        # Every jit_for() call now builds a fresh JitProgram: the
        # identity discipline check must notice.
        assert "JIT001" in error_ids(report)

    def test_tampered_region_trace_is_jit002(self, rich_program, monkeypatch):
        from repro.machine import jit as jit_mod

        original_for = jit_mod.JitProgram.region_for

        def tampering(self, pc):
            region = original_for(self, pc)
            if region is not None and len(region.pcs) > 1:
                region.pcs = region.pcs[:-1]
            return region

        monkeypatch.setattr(jit_mod.JitProgram, "region_for", tampering)
        report = check_jit(rich_program)
        assert "JIT002" in error_ids(report)

    def test_miscompiled_region_is_jit003(self, rich_program, monkeypatch):
        """Seeded codegen bug: swap the generated `add` for a `sub`."""
        from repro.machine import jit as jit_mod

        original = jit_mod.JitProgram._compile_sources

        def miscompiling(self, entry, pcs, taken, links, source):
            source = source.replace("+ r", "- r")
            return original(self, entry, pcs, taken, links, source)

        monkeypatch.setattr(
            jit_mod.JitProgram, "_compile_sources", miscompiling
        )
        report = check_jit(rich_program)
        assert "JIT003" in error_ids(report)

    def test_clean_program_exercises_link_promotion(self, rich_program):
        """JIT004 must not be vacuous: the forced-promotion pass inside
        check_jit has to actually fuse regions on the rich fixture."""
        from repro.machine.jit import JitProgram, block_leaders

        jp = JitProgram(
            rich_program, threshold=1, persist=False, link_threshold=1
        )
        for entry in sorted(block_leaders(rich_program)):
            jp.region_for(entry)
        for entry, region in sorted(jp.compiled.items()):
            for target in sorted(region.exit_targets):
                if target in jp.compiled:
                    jp.region_for(entry)
                    jp.region_for(target)
        assert jp.stats["link_promotions"] > 0
        assert any(r.links for r in jp.compiled.values())

    def test_unfused_promotion_is_jit004(self, rich_program, monkeypatch):
        """Seeded link bug: promotion publishes the link without fusing
        the target's trace into the region."""
        from repro.machine import jit as jit_mod

        def bogus_promote(self, entry, target):
            region = self.compiled.get(entry)
            if region is None:
                return
            region.links = region.links + (target,)
            self.links[entry] = set(region.links)
            self._transit.pop(entry, None)
            self.stats["link_promotions"] += 1

        monkeypatch.setattr(jit_mod.JitProgram, "_promote", bogus_promote)
        report = check_jit(rich_program)
        assert "JIT004" in error_ids(report)


# -- layer 6: runtime event streams -----------------------------------------


def _fork(tid):
    from repro.mssp.runtime.events import TaskForked

    return TaskForked(tid=tid, start_pc=0, end_pc=None)


def _commit(tid):
    from repro.mssp.runtime.events import TaskCommitted

    return TaskCommitted(tid=tid, record=None)


def _squash(tid):
    from repro.mssp.runtime.events import TaskSquashed

    return TaskSquashed(tid=tid, reason="register-live-in", record=None)


def _fail(tid):
    from repro.mssp.runtime.events import MasterFailed

    return MasterFailed(tid=tid, record=None)


class TestCheckRuntimeEvents:
    def test_clean_stream_has_no_errors(self):
        report = check_runtime_events(
            [_fork(0), _fork(1), _commit(0), _commit(1)]
        )
        assert report.ok and not report.findings

    def test_squash_then_refork_is_clean(self):
        report = check_runtime_events(
            [_fork(0), _fork(1), _squash(0), _fork(1), _commit(1)]
        )
        assert report.ok and not report.findings

    def test_out_of_order_judgement_is_rt001(self):
        report = check_runtime_events(
            [_fork(0), _fork(1), _commit(1), _commit(0)]
        )
        assert "RT001" in error_ids(report)

    def test_judgement_with_nothing_outstanding_is_rt001(self):
        report = check_runtime_events([_commit(0)])
        assert "RT001" in error_ids(report)

    def test_non_increasing_committed_tids_is_rt001(self):
        report = check_runtime_events(
            [_fork(3), _commit(3), _fork(3), _commit(3)]
        )
        assert "RT001" in error_ids(report)

    def test_judging_a_squash_discarded_tid_is_rt002(self):
        # The squash of tid 0 kills in-flight tids 1 and 2; judging
        # tid 1 without a fresh fork must be flagged.
        report = check_runtime_events(
            [_fork(0), _fork(1), _fork(2), _squash(0), _commit(1)]
        )
        assert "RT002" in error_ids(report)

    def test_master_failure_discards_successors_rt002(self):
        report = check_runtime_events(
            [_fork(0), _commit(0), _fork(1), _fail(1), _commit(1)]
        )
        assert "RT002" in error_ids(report)

    def test_real_pipelined_run_is_clean(self, rich_program, rich_profile):
        result = Distiller(DistillConfig()).distill(
            rich_program, rich_profile
        )
        report = check_runtime_execution(
            rich_program, (result.distilled, result.pc_map)
        )
        assert report.ok
        assert not report.findings


# -- catalogue integrity ----------------------------------------------------


def _stamp(event, at, actor="runtime"):
    object.__setattr__(event, "at", at)
    object.__setattr__(event, "actor", actor)
    return event


class TestClockStamps:
    """SIM001: per-actor clock monotonicity on stamped streams."""

    def test_stamped_stream_is_clean(self):
        events = [
            _stamp(_fork(0), 1.0), _stamp(_fork(1), 2.0),
            _stamp(_commit(0), 3.0), _stamp(_commit(1), 3.0),
        ]
        report = check_runtime_events(events)
        assert report.ok and not report.findings

    def test_unstamped_stream_is_clean(self):
        # Hand-built events all read the t=0 class default.
        report = check_runtime_events([_fork(0), _commit(0)])
        assert report.ok and not report.findings

    def test_seeded_backwards_stamp_is_sim001(self):
        # Seeded mutation: wind one stamp backwards mid-stream and the
        # lint must catch the clock running in reverse.
        events = [
            _stamp(_fork(0), 1.0), _stamp(_fork(1), 2.0),
            _stamp(_commit(0), 3.0), _stamp(_commit(1), 4.0),
        ]
        assert check_runtime_events(events).ok
        _stamp(events[2], 1.5)
        report = check_runtime_events(events)
        assert "SIM001" in error_ids(report)

    def test_distinct_actors_have_independent_clocks(self):
        # A server stream interleaved with a runtime stream: each
        # actor's stamps are monotone on its own clock.
        events = [
            _stamp(_fork(0), 100.0, actor="runtime"),
            _stamp(_fork(1), 5.0, actor="server"),
            _stamp(_commit(0), 101.0, actor="runtime"),
            _stamp(_commit(1), 6.0, actor="server"),
        ]
        report = check_runtime_events(events)
        assert report.ok and not report.findings

    def test_missing_stamp_is_sim001(self):
        broken = _fork(1)
        object.__setattr__(broken, "at", None)
        report = check_runtime_events(
            [_stamp(_fork(0), 1.0), broken, _stamp(_commit(0), 2.0),
             _stamp(_commit(1), 3.0)]
        )
        assert "SIM001" in error_ids(report)

    def test_live_stream_from_real_run_is_clean(self):
        from repro.config import DistillConfig, MsspConfig
        from repro.distill.distiller import Distiller
        from repro.mssp.engine import create_engine
        from repro.mssp.runtime.events import EventLog
        from repro.profiling import profile_program

        source = """
        main:   li r1, 60
        loop:   addi r1, r1, -1
                add r2, r2, r1
                bne r1, zero, loop
                halt
        """
        program = assemble(source)
        distillation = Distiller(DistillConfig(target_task_size=20)).distill(
            program, profile_program(program)
        )
        log = EventLog()
        with create_engine(
            program, distillation,
            MsspConfig(runtime="process", num_slaves=2),
        ) as engine:
            engine.events.subscribe(log)
            engine.run()
        report = check_runtime_events(log.events)
        assert report.ok, report.render()


class TestCatalogue:
    def test_pass_invariants_reference_registered_checks(self):
        for stage, ids in PASS_INVARIANTS.items():
            unknown = [i for i in ids if i not in CHECKS]
            assert not unknown, f"{stage} declares unknown checks {unknown}"

    def test_every_stage_declares_invariants(self):
        assert set(PASS_INVARIANTS) == {
            "value_spec", "store_elim", "branch_removal", "cold_code",
            "fork_placement", "dce", "layout",
        }

    def test_docs_catalogue_every_check(self):
        docs = Path(__file__).resolve().parents[2] / "docs"
        text = (docs / "static-checks.md").read_text()
        missing = [cid for cid in CHECKS if cid not in text]
        assert not missing, f"docs/static-checks.md misses {missing}"

    def test_severities_are_exhaustive(self):
        assert {s.value for s in Severity} == {"error", "warning"}
