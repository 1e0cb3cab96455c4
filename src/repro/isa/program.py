"""Program container for the Z-ISA.

A :class:`Program` is an immutable bundle of:

* ``code`` — the text section: a tuple of instructions whose branch/jump
  targets have been resolved to integer program counters;
* ``memory`` — the initial data image, a sparse ``{address: value}`` map;
* ``entry`` — the pc at which execution starts;
* ``symbols`` — label → value bindings (text labels map to pcs, data labels
  map to addresses), kept for disassembly and debugging.

``fork`` targets are *not* required to lie inside the program's own text:
in a distilled program they name pcs in the **original** program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import IsaError
from repro.isa.instructions import Instruction, Opcode

#: Attribute under which :func:`repro.machine.decoded.decode` attaches a
#: program's decodings.  Programs derived from one another share it.
DECODINGS_ATTR = "_decoded_cache"

#: Attribute under which :meth:`repro.machine.state.ArchState.initial`
#: caches a program's data image without its zero cells.
BOOT_IMAGE_ATTR = "_boot_image"


@dataclass(frozen=True)
class Program:
    """An assembled, executable Z-ISA program."""

    code: Tuple[Instruction, ...]
    memory: Mapping[int, int] = field(default_factory=dict)
    entry: int = 0
    symbols: Mapping[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        object.__setattr__(self, "code", tuple(self.code))
        object.__setattr__(self, "memory", dict(self.memory))
        object.__setattr__(self, "symbols", dict(self.symbols))
        self._validate()

    def _validate(self) -> None:
        size = len(self.code)
        if size == 0:
            raise IsaError("program has no code")
        if not 0 <= self.entry < size:
            raise IsaError(f"entry point {self.entry} outside text [0, {size})")
        for pc, instr in enumerate(self.code):
            target = instr.target
            if target is None:
                continue
            if isinstance(target, str):
                raise IsaError(
                    f"pc {pc}: unresolved symbolic target {target!r}"
                )
            if instr.op is Opcode.FORK:
                # fork targets refer to the original program; the engine
                # validates them against the pc map instead.
                continue
            if not 0 <= target < size:
                raise IsaError(
                    f"pc {pc}: target {target} outside text [0, {size})"
                )

    def __getstate__(self) -> Dict[str, object]:
        """Pickle/deepcopy state: the dataclass fields only.

        Runtime attachments (the decodings shared by a program and its
        derived variants, which hold closures, and the cached boot
        image) are identity-scoped and must never travel with the
        program's value.
        """
        return {
            name: self.__dict__[name]
            for name in ("code", "memory", "entry", "symbols", "name")
        }

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.code)

    def instruction_at(self, pc: int) -> Instruction:
        """The instruction at ``pc`` (raises IndexError when out of range)."""
        if not 0 <= pc < len(self.code):
            raise IndexError(pc)
        return self.code[pc]

    @property
    def halts(self) -> bool:
        """True if the program contains at least one ``halt``."""
        return any(i.op is Opcode.HALT for i in self.code)

    def label_at(self, pc: int) -> Optional[str]:
        """The first symbol bound to ``pc``, if any (for disassembly)."""
        for name, value in sorted(self.symbols.items()):
            if value == pc:
                return name
        return None

    # -- derived variants ----------------------------------------------------

    def with_memory(self, memory: Mapping[int, int]) -> "Program":
        """The same code with a different initial data image.

        Like every derived variant, the result shares this program's
        decoding attachment: its code is the same tuple, so a workload's
        evaluation and training programs decode once between them.
        """
        return self._derive(memory, self.name)

    def with_name(self, name: str) -> "Program":
        return self._derive(self.memory, name)

    def _derive(self, memory: Mapping[int, int], name: str) -> "Program":
        child = Program(
            code=self.code, memory=memory, entry=self.entry,
            symbols=self.symbols, name=name,
        )
        shared = self.__dict__.get(DECODINGS_ATTR)
        if shared is None:
            shared = {}
            object.__setattr__(self, DECODINGS_ATTR, shared)
        object.__setattr__(child, DECODINGS_ATTR, shared)
        return child

    def updated_memory(self, updates: Mapping[int, int]) -> "Program":
        """The same code with ``updates`` overlaid on the data image."""
        merged: Dict[int, int] = dict(self.memory)
        merged.update(updates)
        return self.with_memory(merged)

    # -- statistics ----------------------------------------------------------

    def static_opcode_histogram(self) -> Dict[str, int]:
        """Static instruction mix, keyed by mnemonic."""
        histogram: Dict[str, int] = {}
        for instr in self.code:
            key = instr.op.mnemonic
            histogram[key] = histogram.get(key, 0) + 1
        return histogram
