"""Superblock JIT: hot Z-ISA regions compiled to generated Python.

The pre-decoded engine (:mod:`repro.machine.decoded`) runs each basic
block suffix as one generated function on the register list, but it
still returns to its dispatch loop at every block end and reads every
operand from the list.  For hot code this module goes further: a
**superblock compiler** stitches the straight-line chain of basic blocks
starting at a hot block leader into a single generated-Python function
per region, produced by textual codegen and ``compile()``/``exec``.
Both generators take their arithmetic and branch expressions from one
table in :mod:`repro.machine.decoded` (``_LOCAL_R3``, ``_I2_OPS_TO_R3``,
``_BRANCH_EXPR``); each keeps its own emitters for memory and control.

What the generated code looks like
----------------------------------

* **Registers become Python locals**: every register the region
  touches is read into a local once at entry and written back at every
  exit.  The extra reads/writes are unobservable on an
  :class:`~repro.machine.state.ArchState` (plain list cells) and on the
  master's private view — which is exactly why the two modes are
  restricted to them.
* **Wrap checks are inlined**: instead of calling ``wrap64`` per result,
  arithmetic emits a range check (``> MAXI or < MINI``) with the biased
  mask fix only on the rare overflow path; ops closed over canonical
  64-bit values (``and``/``or``/``xor``/``sra``/``mov``/comparisons)
  skip the check entirely.  This is sound because every localized value
  is canonical by construction (states wrap on write and at init).
* **ZERO is folded**: instructions writing ``r0`` disappear entirely
  (their operand reads are unobservable too).
* **Fall-through pcs are constant-folded**: inside a region the pc is
  not materialized at all; only exits store ``state.pc``.
* **Memory ops are inlined**: the ``arch`` mode binds the canonical
  sparse dict's ``get``/``__setitem__``/``pop`` once at region entry,
  and a zero store pops its cell (zero cells are absent); the ``master``
  mode reads and writes the view's overlay dicts.
* **Asserted branches are guards**: the trace follows each conditional
  branch's fall-through; the taken direction exits the region with the
  step/load deltas flushed and the pc set.  A branch or jump back to the
  region entry becomes a real Python loop back-edge.

Superblock direct linking
-------------------------

When a compiled region repeatedly exits through the same taken branch
into another compiled region's entry, the dispatcher bounce between them
is pure overhead.  :meth:`JitProgram.region_for` tracks region-to-region
transits (a guard chain per exit target); after
:data:`DEFAULT_LINK_THRESHOLD` consecutive hits the exit is **promoted**:
the source region is re-traced *through* the branch (the followed
direction inverts into a guard, exactly like fall-throughs) and
recompiled with the target's trace fused in — superblock-to-superblock
transfer without leaving generated code, and loops that span several
blocks close into a single Python back-edge.  Fusion is trace extension
rather than a direct call between region functions, so linked hot loops
cannot recurse the Python stack.  ``invalidate()`` (deopt teardown)
atomically unpublishes a region together with its links and counters;
in-flight passes finish on the old function, whose guards remain sound.
``JitProgram.stats`` counts transits, promotions and fused regions.

Codegen modes
-------------

Each mode compiles one function per region:

* ``arch`` — the sequential machine (:meth:`JitProgram.run`, which
  :func:`repro.machine.interpreter.run` calls under the ``jit`` tier):
  registers localized, the canonical sparse memory dict inlined, sound
  only for :class:`~repro.machine.state.ArchState`.
* ``master`` — the distilled program on the master's private view
  (:class:`repro.mssp.master._MasterView`): registers localized (``r0``
  folds to literal zero), the dirty/delta overlay dicts inlined, FORK
  and JR treated as region *boundaries* (the master hardware intercepts
  them, so traces stop just before), and per-pc arrival counting moved
  into generated code — each traced arrival pc increments a local
  counter at its visit position, batch-committed into the master's
  arrivals dict at every exit.

MSSP slaves and recovery run the decoded engine's chains under every
tier but ``oracle``: they record live-ins or stop at anchors, and the
chains already do both at block granularity.

Guards
------

Regions preserve the decoded engine's exact observable semantics by
construction plus guards:

* region entry requires ``steps + linear_len < budget`` — one pass can
  never cross the step-limit boundary, so the caller's per-step decoded
  fallback fires ``StepLimitExceeded`` (or the master's timeout) at
  precisely the same instruction as the reference loop;
* loop back-edges re-check the budget before continuing;
* regions begin only at original-CFG block leaders
  (:func:`block_leaders`);
* runs with an observer never reach the JIT:
  :func:`repro.machine.interpreter.run` sends them to the decoded
  per-step loop (exact per-step fidelity).

Region function protocols
-------------------------

``arch``::

    fn(state, steps, budget) -> (steps, status)

``master``::

    fn(view, steps, loads, budget, arrivals_dict) -> (steps, loads, status)

``status`` is :data:`EXIT_RUN` (normal exit, ``state.pc`` synced) or
:data:`EXIT_HALT` (pc left at the halt, halt not counted).  Steps (and
the master's loads) are flushed as compile-time-constant increments at
every exit.

The persistent code cache
-------------------------

Compiled regions are content-addressed — (program digest, codegen mode,
schema, Python version, plus the arrival-pc map for ``master`` mode) —
in the persistent on-disk artifact cache (:mod:`repro.experiments.cache`,
kind ``jitcode``): the generated *source text* plus trace metadata
(pcs, followed branches, links) per region.  A new :class:`JitProgram`
for the same program content loads and ``exec``\\ s the stored sources
immediately, skipping both the hotness warmup and the trace/codegen
work — this is how a fresh process reuses another's compilations
instead of re-JITting.  Like the decode cache, the in-memory attachment
lives on the :class:`~repro.isa.program.Program` instance and is
excluded from pickles by ``Program.__getstate__``.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.errors import InvalidPcError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import RA, ZERO
from repro.machine.decoded import (
    _BRANCH_EXPR,
    _CODEGEN_GLOBALS,
    _I2_OPS_TO_R3,
    _LOCAL_R3,
    DecodedProgram,
    decode,
)
from repro.machine.state import MachineStateLike, wrap64

__all__ = [
    "EXIT_RUN", "EXIT_HALT",
    "EXEC_TIERS", "JIT_SCHEMA", "DEFAULT_THRESHOLD",
    "DEFAULT_LINK_THRESHOLD", "REGION_LIMIT",
    "Region", "JitProgram", "jit_for", "block_leaders",
    "jit_cache_key", "resolve_exec_tier",
]

#: The execution-tier ladder, slowest first.  ``oracle`` dispatches every
#: step through :func:`repro.machine.semantics.execute` (the semantic
#: reference), ``decoded`` through the pre-decoded chains, ``jit`` runs
#: the sequential machine and the MSSP master through compiled
#: superblocks (falling back to ``decoded``) and everything else as
#: ``decoded`` does.
EXEC_TIERS = ("oracle", "decoded", "jit")
_EXEC_ENV = "REPRO_EXEC"


def resolve_exec_tier(explicit: Optional[str] = None) -> str:
    """The effective execution tier: explicit > ``REPRO_EXEC`` > decoded."""
    tier = explicit
    if tier is None:
        tier = os.environ.get(_EXEC_ENV, "").strip().lower() or "decoded"
    if tier not in EXEC_TIERS:
        raise ValueError(
            f"unknown execution tier {tier!r}: expected one of {EXEC_TIERS}"
        )
    return tier

#: Region exit statuses (see the module docstring).
EXIT_RUN = 0
EXIT_HALT = 1

#: Bump when trace construction or codegen changes shape: it is folded
#: into every persistent-cache key, so stale generated code can never be
#: executed against a newer runtime.  2: inlined wrap checks, per-backend
#: memory flavors, plain variants, superblock linking, master mode.
#: 3: one memory flavor (``arch`` regions compile ``full`` and ``plain``).
#: 4: one function and one source per region.
JIT_SCHEMA = 4

#: Arrivals at a block leader before its region is compiled.
DEFAULT_THRESHOLD = 16

#: Consecutive same-target region-to-region transits before the exit is
#: promoted into a fused trace (superblock direct linking).
DEFAULT_LINK_THRESHOLD = 8

#: Link health: a fused link survives while its internal back-edge hits
#: outnumber inverted-guard misses this-many-to-one; below that the link
#: is demoted (the fused tail costs more than the saved dispatch).
_LINK_KEEP_RATIO = 4

#: Maximum instructions traced into one superblock (fused traces included).
REGION_LIMIT = 256

#: Regions shorter than this are not worth a call.
_MIN_REGION = 2

#: Attribute under which JitPrograms are cached on the Program instance
#: (excluded from pickles by ``Program.__getstate__``, exactly like the
#: decode cache).
_CACHE_ATTR = "_jit_cache"

_MASK64 = (1 << 64) - 1
_MAXI = (1 << 63) - 1
_MINI = -(1 << 63)
_BIAS = 1 << 63


def block_leaders(program: Program) -> FrozenSet[int]:
    """Original-CFG block leaders: pcs where a basic block can begin.

    Entry, every branch/jump target inside the text, and every pc
    following a terminator or a ``fork`` (``fork`` targets name pcs in a
    *different* program and are ignored).  Regions are compiled only at
    these pcs.
    """
    size = len(program.code)
    leaders: Set[int] = {program.entry, 0}
    for pc, instr in enumerate(program.code):
        if instr.op is not Opcode.FORK:
            target = instr.target
            if isinstance(target, int) and 0 <= target < size:
                leaders.add(target)
        if (instr.is_terminator or instr.op is Opcode.FORK) and pc + 1 < size:
            leaders.add(pc + 1)
    return frozenset(leaders)


def jit_cache_key(
    program: Program, mode: str, extra: Optional[tuple] = None
) -> str:
    """Persistent-cache key for ``program``'s compiled regions.

    ``extra`` folds mode-specific compilation inputs into the key; the
    ``master`` mode passes its (pc -> anchor) arrival map, which is baked
    into generated code as constants.
    """
    from repro.experiments import cache

    return cache.digest(
        "jitcode", JIT_SCHEMA, cache.program_digest(program), mode,
        list(sys.version_info[:2]),
        [list(item) for item in (extra or ())],
    )


class Region:
    """One compiled superblock: its generated function + metadata."""

    __slots__ = (
        "entry", "pcs", "taken", "links", "linear_len", "mode",
        "source", "fn", "exit_targets", "guard_fallthroughs", "backedges",
    )

    def __init__(
        self,
        entry: int,
        pcs: Tuple[int, ...],
        taken: FrozenSet[int],
        links: Tuple[int, ...],
        mode: str,
        source: str,
        fn,
        exit_targets: FrozenSet[int],
        backedges: Optional[List[int]] = None,
    ):
        self.entry = entry
        #: Traced pcs in execution order (each executes at most once per
        #: pass; loops re-enter through the back-edge).
        self.pcs = pcs
        #: Branch pcs whose *taken* direction the trace follows (the
        #: fall-through inverts into the guard exit) — nonempty only for
        #: fused regions produced by link promotion.
        self.taken = taken
        #: Promoted exit targets fused into this trace, in promotion order.
        self.links = links
        #: Upper bound on instructions one pass can execute — the entry
        #: and back-edge budget guards use it.
        self.linear_len = len(pcs)
        self.mode = mode
        #: The generated source text, and the function it defines (the
        #: mode's protocol, see the module docstring).
        self.source = source
        self.fn = fn
        #: Static exit targets eligible for link promotion: taken targets
        #: of non-followed branches that leave the trace (and are not the
        #: entry, whose edge is already the loop back-edge).
        self.exit_targets = exit_targets
        #: Guard-exit pcs of followed branches (the inverted fall-through
        #: directions).  The dispatcher watches arrivals here to detect a
        #: link whose bias prediction went stale.
        self.guard_fallthroughs = frozenset(
            pc + 1 for pc in taken if pc + 1 != entry
        )
        #: One shared mutable cell, incremented by generated code at
        #: every internal back-edge of a *fused* region — loop passes
        #: that never surface to the dispatcher, the denominator of the
        #: link-health ratio.  Empty-taken regions carry no counter (and
        #: no per-iteration cost).
        self.backedges = backedges if backedges is not None else [0]


class _Emitter:
    """Tiny indented-line collector for the textual codegen."""

    __slots__ = ("lines",)

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class JitProgram:
    """A program plus its (lazily) compiled superblock regions.

    Obtain instances through :func:`jit_for`.  ``mode`` selects the
    codegen specialization — see the module docstring.
    """

    __slots__ = (
        "program", "decoded", "size", "mode", "leaders", "threshold",
        "link_threshold", "arrival_pcs", "compiled", "links", "stats",
        "_dead", "_counters", "_transit", "_no_extend", "_link_miss",
        "_last_entry", "_cache_key", "_persist",
    )

    def __init__(
        self,
        program: Program,
        mode: str = "arch",
        threshold: int = DEFAULT_THRESHOLD,
        persist: bool = True,
        arrival_pcs: Optional[Mapping[int, int]] = None,
        link_threshold: int = DEFAULT_LINK_THRESHOLD,
    ):
        if mode not in ("arch", "master"):
            raise ValueError(f"unknown jit codegen mode {mode!r}")
        if mode == "master":
            arrival_pcs = dict(arrival_pcs or {})
        elif arrival_pcs is not None:
            raise ValueError("arrival_pcs is only meaningful in master mode")
        self.program = program
        self.decoded: DecodedProgram = decode(program)
        self.size = self.decoded.size
        self.mode = mode
        self.leaders = block_leaders(program)
        #: pc -> original anchor, baked into master-mode codegen.
        self.arrival_pcs: Dict[int, int] = arrival_pcs or {}
        self.threshold = max(1, threshold)
        self.link_threshold = max(1, link_threshold)
        #: entry pc -> Region for every compiled superblock.
        self.compiled: Dict[int, Region] = {}
        #: entry pc -> promoted branch-taken targets its trace follows.
        self.links: Dict[int, Set[int]] = {}
        #: Observable codegen/linking counters (bench smoke asserts on
        #: these): regions compiled, candidate region-to-region transits,
        #: promotions/demotions performed, currently-fused region count.
        self.stats: Dict[str, int] = {
            "compiled": 0,
            "link_transits": 0,
            "link_promotions": 0,
            "link_demotions": 0,
            "fused_regions": 0,
        }
        self._dead: Set[int] = set()
        self._counters: Dict[int, int] = {}
        #: entry -> (last exit target, consecutive count) guard chains.
        self._transit: Dict[int, Tuple[int, int]] = {}
        self._no_extend: Set[Tuple[int, int]] = set()
        #: (entry, linked target) -> inverted-guard miss count.
        self._link_miss: Dict[Tuple[int, int], int] = {}
        self._last_entry: Optional[int] = None
        self._persist = persist
        if persist:
            extra = tuple(sorted(self.arrival_pcs.items())) or None
            self._cache_key = jit_cache_key(program, mode, extra)
            self._load_persisted()
        else:
            self._cache_key = None

    # -- persistent code cache ----------------------------------------------

    def _load_persisted(self) -> None:
        """Compile every region another process already traced."""
        from repro.experiments import cache

        stored = cache.load("jitcode", self._cache_key)
        if not isinstance(stored, dict):
            return
        for entry, meta in stored.items():
            try:
                region = self._compile_sources(
                    int(entry),
                    tuple(meta["pcs"]),
                    frozenset(meta["taken"]),
                    tuple(meta["links"]),
                    meta["source"],
                )
            except Exception:
                continue  # stale/corrupt entry: recompile lazily
            self.compiled[region.entry] = region
            if region.links:
                self.links[region.entry] = set(region.links)
            self.stats["compiled"] += 1
        self.stats["fused_regions"] = sum(
            1 for r in self.compiled.values() if r.links
        )

    def _persist_regions(self) -> None:
        from repro.experiments import cache

        payload = {
            entry: {
                "pcs": list(region.pcs),
                "taken": sorted(region.taken),
                "links": list(region.links),
                "source": region.source,
            }
            for entry, region in self.compiled.items()
        }
        cache.store("jitcode", self._cache_key, payload)

    # -- region lookup / linking ---------------------------------------------

    def region_for(self, pc: int) -> Optional[Region]:
        """The compiled region entered at ``pc``, counting hotness.

        Returns ``None`` while ``pc`` is cold (or is not a block leader,
        or traces to a region too short to be worth a call).  Each call
        counts one arrival; crossing :attr:`threshold` compiles.  Every
        call also feeds the linking machinery with the observed
        region-to-region transition: a transit along the same static
        exit :attr:`link_threshold` times in a row fuses the target's
        trace into the source region, and a fused region whose inverted
        guard keeps firing (misses outgrowing a fraction of its internal
        loop passes) has that link demoted again.
        """
        region = self.compiled.get(pc)
        prev = self._last_entry
        if region is not None:
            self._last_entry = pc
            if prev is not None and prev != pc:
                self._observe_transition(prev, pc)
            return region
        self._last_entry = None
        if prev is not None:
            self._observe_transition(prev, pc)
        if pc in self._dead:
            return None
        if pc not in self.leaders:
            self._dead.add(pc)
            return None
        count = self._counters.get(pc, 0) + 1
        if count < self.threshold:
            self._counters[pc] = count
            return None
        self._counters.pop(pc, None)
        region = self._compile(pc)
        if region is None:
            self._dead.add(pc)
            return None
        self.compiled[pc] = region
        self.stats["compiled"] += 1
        if self._persist:
            self._persist_regions()
        return region

    def _observe_transition(self, prev_entry: int, pc: int) -> None:
        """React to control arriving at ``pc`` out of ``prev_entry``'s
        region: count promotion guard chains and link-guard misses."""
        source = self.compiled.get(prev_entry)
        if source is None:
            return
        if pc in source.guard_fallthroughs:
            self._note_guard_miss(prev_entry, source, pc)
            return
        if pc not in source.exit_targets:
            return
        if (prev_entry, pc) in self._no_extend:
            return
        self.stats["link_transits"] += 1
        last, count = self._transit.get(prev_entry, (None, 0))
        count = count + 1 if last == pc else 1
        self._transit[prev_entry] = (pc, count)
        if count >= self.link_threshold:
            self._promote(prev_entry, pc)

    def _note_guard_miss(self, entry: int, region: Region,
                         fall_pc: int) -> None:
        """A fused region exited through an inverted guard: charge the
        link that predicted the other direction, demote if it keeps
        losing.

        A healthy fused loop spins on its internal back-edge without
        ever surfacing here, so every observed guard miss is evidence
        against the link; the generated back-edge counter supplies the
        invisible hits.  The link survives while hits outnumber misses
        :data:`_LINK_KEEP_RATIO`-to-one — below that, the fall-through
        tail (served by per-step chain dispatch after every miss) costs
        more than the saved dispatcher bounce, and the link is torn
        down: the region recompiles without it and the pair is never
        promoted again.
        """
        branch_pc = fall_pc - 1
        if branch_pc not in region.taken:
            return
        target = self.program.code[branch_pc].target
        key = (entry, target)
        misses = self._link_miss.get(key, 0) + 1
        self._link_miss[key] = misses
        if (
            misses >= self.link_threshold
            and misses * _LINK_KEEP_RATIO > region.backedges[0]
        ):
            self._demote(entry, target)

    def _demote(self, entry: int, target: int) -> None:
        """Tear one link down: recompile ``entry`` without ``target``."""
        self._no_extend.add((entry, target))
        self._transit.pop(entry, None)
        self._link_miss = {
            k: v for k, v in self._link_miss.items() if k[0] != entry
        }
        links = set(self.links.get(entry, ()))
        links.discard(target)
        while links:
            # A surviving link may only have been reachable through the
            # removed one — drop any the re-trace no longer follows, so
            # the published metadata stays re-derivable (JIT004).
            pcs, _taken = self.trace(entry, frozenset(links))
            stale = {t for t in links if t not in pcs}
            if not stale:
                break
            links -= stale
        if links:
            self.links[entry] = links
        else:
            self.links.pop(entry, None)
        region = self._compile(entry)
        if region is None:  # pragma: no cover - it compiled before
            self.invalidate(entry)
            return
        self.compiled[entry] = region
        self.stats["link_demotions"] += 1
        self.stats["fused_regions"] = sum(
            1 for r in self.compiled.values() if r.links
        )
        if self._persist:
            self._persist_regions()

    def _promote(self, entry: int, target: int) -> None:
        """Fuse ``target``'s continuation into ``entry``'s trace."""
        old = self.compiled.get(entry)
        if old is None:
            return
        links = set(self.links.get(entry, ()))
        links.add(target)
        new_pcs, _taken = self.trace(entry, frozenset(links))
        if target not in new_pcs:
            # The extension didn't materialize (REGION_LIMIT truncation,
            # or the branch is unreachable in the re-trace): never retry
            # this pair.  Note the fused trace may well be *shorter* than
            # the old one — following the taken direction replaces the
            # whole fall-through tail.
            self._no_extend.add((entry, target))
            self._transit.pop(entry, None)
            return
        while True:
            # Following the new branch can divert the trace away from a
            # previously fused link — drop any the re-trace no longer
            # reaches, so published metadata stays re-derivable (JIT004).
            stale = {t for t in links if t not in new_pcs}
            if not stale:
                break
            links -= stale
            new_pcs, _taken = self.trace(entry, frozenset(links))
            if target not in new_pcs:  # pragma: no cover - defensive
                self._no_extend.add((entry, target))
                self._transit.pop(entry, None)
                return
        self.links[entry] = links
        region = self._compile(entry)
        if region is None:  # pragma: no cover - trace() said otherwise
            links.discard(target)
            self._no_extend.add((entry, target))
            return
        self.compiled[entry] = region
        self._transit.pop(entry, None)
        self._link_miss = {
            k: v for k, v in self._link_miss.items() if k[0] != entry
        }
        self.stats["link_promotions"] += 1
        self.stats["fused_regions"] = sum(
            1 for r in self.compiled.values() if r.links
        )
        if self._persist:
            self._persist_regions()

    def invalidate(self, entry: int) -> None:
        """Deopt teardown: unpublish ``entry``'s region and its links.

        Dispatchers hold a region only for the duration of one pass, and
        every pass's guards are sound in isolation — so tearing a region
        down is just unpublishing it; in-flight passes complete safely on
        the old function.  Hotness restarts from zero (the region may
        recompile later, without its promoted links).
        """
        self.compiled.pop(entry, None)
        self.links.pop(entry, None)
        self._transit.pop(entry, None)
        self._counters.pop(entry, None)
        self._no_extend = {p for p in self._no_extend if p[0] != entry}
        self._link_miss = {
            k: v for k, v in self._link_miss.items() if k[0] != entry
        }
        if self._last_entry == entry:
            self._last_entry = None
        self.stats["fused_regions"] = sum(
            1 for r in self.compiled.values() if r.links
        )
        if self._persist:
            self._persist_regions()

    # -- tracing -------------------------------------------------------------

    def trace(
        self, entry: int, links: Optional[FrozenSet[int]] = None
    ) -> Tuple[Tuple[int, ...], FrozenSet[int]]:
        """The superblock trace from ``entry`` (deterministic).

        Follows fall-throughs and unconditional jumps; additionally
        follows the *taken* direction of branches whose target is in
        ``links`` (defaulting to this program's promoted links for
        ``entry``).  Stops at ``jr``, ``halt``, a back-edge to ``entry``,
        a pc already traced, the end of the text, or
        :data:`REGION_LIMIT`; ``master`` mode also stops *before* FORK
        and JR (the master hardware intercepts both).  Returns
        ``(pcs, taken)`` where ``taken`` is the set of branch pcs whose
        taken direction the trace follows.  ``repro lint``'s JIT002
        check re-derives this and compares it against compiled regions.
        """
        if links is None:
            links = frozenset(self.links.get(entry, ()))
        code = self.program.code
        size = self.size
        master = self.mode == "master"
        pcs: List[int] = []
        taken: Set[int] = set()
        seen: Set[int] = set()
        pc = entry
        while len(pcs) < REGION_LIMIT and 0 <= pc < size and pc not in seen:
            instr = code[pc]
            op = instr.op
            if master and (op is Opcode.FORK or op is Opcode.JR):
                break  # region boundary: the master intercepts these
            pcs.append(pc)
            seen.add(pc)
            if op is Opcode.HALT or op is Opcode.JR:
                break
            if op is Opcode.J or op is Opcode.JAL:
                if instr.target == entry:
                    break  # becomes the loop back-edge
                pc = instr.target
            elif instr.is_branch:
                target = instr.target
                if target != entry and target in links and target not in seen:
                    taken.add(pc)
                    pc = target
                else:
                    pc = pc + 1
            else:
                pc = pc + 1
        return tuple(pcs), frozenset(taken)

    def _compile(self, entry: int) -> Optional[Region]:
        pcs, taken = self.trace(entry)
        if len(pcs) < _MIN_REGION:
            return None
        links = tuple(sorted(self.links.get(entry, ())))
        source = self._generate(entry, pcs, taken)
        return self._compile_sources(entry, pcs, frozenset(taken), links,
                                     source)

    def _compile_sources(
        self,
        entry: int,
        pcs: Tuple[int, ...],
        taken: FrozenSet[int],
        links: Tuple[int, ...],
        source: str,
    ) -> Region:
        backedges = [0]  # the link-health counter (see Region.backedges)
        namespace = dict(_CODEGEN_GLOBALS)
        namespace["_bk"] = backedges
        code = compile(
            source, f"<jit:{self.program.name}@{entry}:{self.mode}>", "exec"
        )
        exec(code, namespace)
        return Region(
            entry, pcs, taken, links, self.mode, source,
            namespace[f"_region_{entry}"],
            self._exit_targets(entry, pcs, taken), backedges,
        )

    def _exit_targets(
        self, entry: int, pcs: Tuple[int, ...], taken: FrozenSet[int]
    ) -> FrozenSet[int]:
        code = self.program.code
        traced = set(pcs)
        out: Set[int] = set()
        for pc in pcs:
            instr = code[pc]
            if not instr.is_branch or pc in taken:
                continue
            target = instr.target
            if (
                isinstance(target, int)
                and 0 <= target < self.size
                and target != entry
                and target not in traced
            ):
                out.add(target)
        return frozenset(out)

    # -- codegen -------------------------------------------------------------

    def generate_source(self, entry: int) -> Optional[str]:
        """The generated source for ``entry``'s region (for the checks)."""
        pcs, taken = self.trace(entry)
        if len(pcs) < _MIN_REGION:
            return None
        return self._generate(entry, pcs, taken)

    def _generate(
        self,
        entry: int,
        pcs: Tuple[int, ...],
        taken: FrozenSet[int],
    ) -> str:
        master = self.mode == "master"
        code = self.program.code
        linear_len = len(pcs)

        # Registers the region touches.
        reads: Set[int] = set()
        writes: Set[int] = set()
        has_loads = False
        has_stores = False
        for pc in pcs:
            instr = code[pc]
            for reg in instr.uses():
                reads.add(reg)
            for reg in instr.defs():
                if reg != ZERO:
                    writes.add(reg)
            if instr.op is Opcode.LW:
                has_loads = True
            elif instr.op is Opcode.SW:
                has_stores = True
        if master:
            # r0 folds to literal zero on the master view.
            reads.discard(ZERO)
        localized = sorted(reads | writes)
        written = sorted(writes)

        # Master mode: anchor arrival counters for every traced pc the
        # master counts arrivals at, batch-committed at every exit.
        arrival_sites: Dict[int, int] = {}  # pc -> counter id
        anchor_of: Dict[int, int] = {}  # counter id -> anchor
        if master:
            ids: Dict[int, int] = {}  # anchor -> counter id
            for pc in pcs:
                anchor = self.arrival_pcs.get(pc)
                if anchor is None:
                    continue
                cid = ids.get(anchor)
                if cid is None:
                    cid = ids[anchor] = len(ids)
                    anchor_of[cid] = anchor
                arrival_sites[pc] = cid

        out = _Emitter()
        if master:
            out.emit(0, f"def _region_{entry}(state, steps, loads, budget, "
                        "arr):")
        else:
            out.emit(0, f"def _region_{entry}(state, steps, budget):")
        out.emit(1, "_regs = state.regs")
        for reg in localized:
            out.emit(1, f"r{reg} = _regs[{reg}]")
        if master:
            if has_loads or has_stores:
                out.emit(1, "_dirty = state.dirty")
            if has_stores:
                out.emit(1, "_delta = state.delta")
            if has_loads:
                out.emit(1, "_bget = state._base_mem.get")
            if anchor_of:
                out.emit(1, "_aget = arr.get")
                for cid in anchor_of:
                    out.emit(1, f"_c{cid} = 0")
        else:
            if has_loads or has_stores:
                out.emit(1, "_mem = state.mem")
            if has_loads:
                out.emit(1, "_mget = _mem.get")
            if has_stores:
                out.emit(1, "_mset = _mem.__setitem__")
                out.emit(1, "_mpop = _mem.pop")
        out.emit(1, "while True:")

        def reg_expr(reg: int) -> str:
            return "0" if master and reg == ZERO else f"r{reg}"

        def flush_expr(base: str, delta: int) -> str:
            return f"{base} + {delta}" if delta else base

        def exit_return(
            indent: int, pc_expr: str, k: int, ld: int,
            status: int = EXIT_RUN,
        ) -> None:
            for reg in written:
                out.emit(indent, f"_regs[{reg}] = r{reg}")
            for cid, anchor in anchor_of.items():
                out.emit(indent, f"if _c{cid}:")
                out.emit(
                    indent + 1,
                    f"arr[{anchor}] = _aget({anchor}, 0) + _c{cid}",
                )
            out.emit(indent, f"state.pc = {pc_expr}")
            if master:
                out.emit(
                    indent,
                    f"return {flush_expr('steps', k)}, "
                    f"{flush_expr('loads', ld)}, {status}",
                )
            else:
                out.emit(
                    indent, f"return {flush_expr('steps', k)}, {status}"
                )

        def back_edge(indent: int, k: int, ld: int) -> None:
            """Flush deltas, re-check the budget, and loop — or exit RUN
            for the dispatcher."""
            if k:
                out.emit(indent, f"steps += {k}")
            if ld and master:
                out.emit(indent, f"loads += {ld}")
            if taken:
                # Fused regions count internal loop passes: the link
                # health denominator (guard misses are the numerator).
                out.emit(indent, "_bk[0] += 1")
            out.emit(indent, f"if steps + {linear_len} < budget:")
            out.emit(indent + 1, "continue")
            exit_return(indent, str(entry), 0, 0)

        def emit_wrap(indent: int, dest: str, kind: str) -> None:
            if kind == "two":
                out.emit(indent, f"if {dest} > {_MAXI} or {dest} < {_MINI}:")
                out.emit(
                    indent + 1,
                    f"{dest} = (({dest} + {_BIAS}) & {_MASK64}) - {_BIAS}",
                )
            elif kind == "upper":
                out.emit(indent, f"if {dest} > {_MAXI}:")
                out.emit(indent + 1, f"{dest} -= {1 << 64}")

        def emit_address(indent: int, rs: int, imm: int) -> str:
            """Compute a canonical memory address into ``_a`` (or reuse
            the base register directly when the offset is zero)."""
            base = reg_expr(rs)
            if imm == 0:
                return base
            out.emit(indent, f"_a = {base} + {imm}")
            emit_wrap(indent, "_a", "two")
            return "_a"

        def emit_linear(indent: int, instr: Instruction) -> int:
            """Emit one non-control instruction; returns its load count."""
            op = instr.op
            rd = instr.rd
            spec = _LOCAL_R3.get(op)
            if spec is not None:
                if rd != ZERO:
                    expr, kind = spec
                    a, b = reg_expr(instr.rs), reg_expr(instr.rt)
                    out.emit(indent, f"r{rd} = {expr.format(a=a, b=b)}")
                    emit_wrap(indent, f"r{rd}", kind)
                return 0
            r3 = _I2_OPS_TO_R3.get(op)
            if r3 is not None:
                if rd != ZERO:
                    expr, kind = _LOCAL_R3[r3]
                    imm = instr.imm
                    if kind == "none" and not _MINI <= imm <= _MAXI:
                        kind = "two"  # non-canonical immediate: play safe
                    out.emit(
                        indent,
                        f"r{rd} = "
                        f"{expr.format(a=reg_expr(instr.rs), b=repr(imm))}",
                    )
                    emit_wrap(indent, f"r{rd}", kind)
                return 0
            if op is Opcode.LW:
                if rd == ZERO:
                    # Unobservable without recording; it still counts
                    # toward the loads delta.
                    return 1
                addr = emit_address(indent, instr.rs, instr.imm)
                if master:
                    out.emit(
                        indent,
                        f"r{rd} = _dirty[{addr}] if {addr} in _dirty "
                        f"else _bget({addr}, 0)",
                    )
                else:
                    out.emit(indent, f"r{rd} = _mget({addr}, 0)")
                return 1
            if op is Opcode.SW:
                addr = emit_address(indent, instr.rs, instr.imm)
                value = reg_expr(instr.rt)
                if master:
                    # The master's dirty overlay keeps explicit zeros.
                    out.emit(indent, f"_dirty[{addr}] = {value}")
                    out.emit(indent, f"_delta[{addr}] = {value}")
                else:
                    out.emit(indent, f"if {value}:")
                    out.emit(indent + 1, f"_mset({addr}, {value})")
                    out.emit(indent, "else:")
                    out.emit(indent + 1, f"_mpop({addr}, None)")
                return 0
            if op is Opcode.LI:
                if rd != ZERO:
                    out.emit(indent, f"r{rd} = {wrap64(instr.imm)!r}")
                return 0
            if op is Opcode.MOV:
                if rd != ZERO:
                    out.emit(indent, f"r{rd} = {reg_expr(instr.rs)}")
                return 0
            # NOP and FORK (a task marker, not a computation) fall through.
            return 0

        body = 2
        steps_delta = 0
        loads_delta = 0
        for i, pc in enumerate(pcs):
            instr = code[pc]
            op = instr.op
            if pc in arrival_sites:
                # The master loop counts an arrival at every *visit* of
                # an arrival pc, before executing it.
                out.emit(body, f"_c{arrival_sites[pc]} += 1")

            if op is Opcode.HALT:
                exit_return(body, str(pc), steps_delta, loads_delta,
                            EXIT_HALT)
                break
            if op is Opcode.JR:
                steps_delta += 1
                out.emit(body, f"_p = {reg_expr(instr.rs)}")
                exit_return(body, "_p", steps_delta, loads_delta)
                break

            if instr.is_branch:
                cond = _BRANCH_EXPR[op].format(
                    a=reg_expr(instr.rs), b=reg_expr(instr.rt)
                )
                exit_k = steps_delta + 1
                if pc in taken:
                    # Linked trace: the taken direction continues inline;
                    # the fall-through inverts into the guard exit.
                    fall = pc + 1
                    out.emit(body, f"if not ({cond}):")
                    if fall == entry:
                        back_edge(body + 1, exit_k, loads_delta)
                    else:
                        exit_return(body + 1, str(fall), exit_k, loads_delta)
                    steps_delta += 1
                    continue  # next traced pc is the branch target
                out.emit(body, f"if {cond}:")
                if instr.target == entry:
                    back_edge(body + 1, exit_k, loads_delta)
                else:
                    exit_return(
                        body + 1, str(instr.target), exit_k, loads_delta
                    )
                steps_delta += 1
                fall = pc + 1
                if i + 1 < len(pcs) and pcs[i + 1] == fall:
                    continue
                exit_return(body, str(fall), steps_delta, loads_delta)
                break

            if op is Opcode.J or op is Opcode.JAL:
                if op is Opcode.JAL:
                    out.emit(body, f"r{RA} = {pc + 1}")
                steps_delta += 1
                target = instr.target
                if target == entry:
                    back_edge(body, steps_delta, loads_delta)
                    break
                if i + 1 < len(pcs) and pcs[i + 1] == target:
                    continue  # constant-folded jump into the trace
                exit_return(body, str(target), steps_delta, loads_delta)
                break

            # Straight-line instruction.
            loads_delta += emit_linear(body, instr)
            steps_delta += 1
            if i + 1 == len(pcs):  # trace truncated mid-block
                exit_return(body, str(pc + 1), steps_delta, loads_delta)
        return out.source()

    # -- sequential execution ------------------------------------------------

    def run(self, state: MachineStateLike, max_steps: int) -> Tuple[int, bool]:
        """Advance ``state`` until halt; returns ``(steps, halted)``.

        Drop-in for :meth:`DecodedProgram.run` without an observer, with
        hot regions executing as compiled superblocks; cold code runs the
        decoded chains.  Near the budget boundary the decoded engine's
        exact logic takes over, so
        :class:`~repro.errors.StepLimitExceeded` fires at the same
        instruction as the reference loop.  ``arch`` mode only, on an
        :class:`~repro.machine.state.ArchState`.
        """
        decoded = self.decoded
        chains = decoded.chains
        spans = decoded.chain_spans
        chain_halts = decoded.chain_halts
        size = self.size
        regs = state.regs
        steps = 0
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            region = self.region_for(pc)
            if region is not None and steps + region.linear_len < max_steps:
                steps, status = region.fn(state, steps, max_steps)
                if status == EXIT_HALT:
                    return steps, True
                continue
            n = spans[pc]
            if steps + n < max_steps:
                chains[pc](regs, state)
                if chain_halts[pc]:
                    return steps + n - 1, True
                steps += n
            else:
                return decoded._step_loop(state, steps, max_steps, None)


def jit_for(
    program: Program,
    mode: str = "arch",
    threshold: int = DEFAULT_THRESHOLD,
    arrival_pcs: Optional[Mapping[int, int]] = None,
) -> JitProgram:
    """The (cached) :class:`JitProgram` of ``program`` for ``mode``.

    One instance is kept per program *object* per mode (per arrival map
    in ``master`` mode), in an attachment excluded from pickling by
    ``Program.__getstate__`` — the same lifetime discipline as
    :func:`repro.machine.decoded.decode`.
    """
    cache = program.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        object.__setattr__(program, _CACHE_ATTR, cache)
    key = mode
    if mode == "master":
        key = (mode, tuple(sorted((arrival_pcs or {}).items())))
    jp = cache.get(key)
    if jp is None:
        jp = JitProgram(
            program, mode=mode, threshold=threshold, arrival_pcs=arrival_pcs
        )
        cache[key] = jp
    return jp
