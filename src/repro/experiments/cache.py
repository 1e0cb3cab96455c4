"""Persistent artifact cache for the benchmark/experiment pipeline.

The expensive stage of every benchmark is functional, not timing:
profile the training inputs, distill, and run the MSSP engine with its
equivalence check.  Those artifacts depend only on (workload code +
data, size, distiller configuration, engine configuration) — all
deterministic — so they can be cached *across processes*, replacing the
per-process ``functools.lru_cache`` the benchmarks used before.

Layout::

    benchmarks/cache/
        <kind>-<digest>.pkl     one pickled artifact per key

Keys are SHA-256 digests over a canonical JSON rendering of the key
parts; artifacts additionally digest the workload's *program content*
(code + data image), so editing a workload generator invalidates its
entries automatically.  A schema version is folded into every digest —
bump :data:`CACHE_SCHEMA` when the pickled artifact types change shape.

The cache root defaults to ``benchmarks/cache`` next to the repository's
``benchmarks/`` package and can be redirected with the
``REPRO_BENCH_CACHE`` environment variable (point it at a tmpdir in
tests); ``REPRO_BENCH_CACHE=off`` disables persistence entirely.
Corrupt or unreadable entries are treated as misses and overwritten.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

#: Bump when cached artifact types change incompatibly.
#: 2: MsspCounters grew the ``dispatch`` field (runtime-core refactor).
#: 3: PcMap grew per-instruction ``provenance``; MsspCounters grew
#:    ``static_verify_skips`` (speculation-safety prover).
#: 4: ArchState memory may pickle as a paged store; MsspConfig grew a
#:    memory-store knob; bench summaries grew the paged-store and
#:    master-jit microbenchmark stages.
#: 5: MsspCounters grew ``predictor_hits``/``predictor_misses``/
#:    ``redistillations``; PreparedWorkload grew ``distill_config``;
#:    MsspConfig grew the predictor/redistillation knobs; bench suite
#:    rows grew the adaptive stage (value-predicted live-ins +
#:    squash-driven online re-distillation).
#: 6: bench summaries grew the serving stage (``serve_bench``: open-loop
#:    arrivals, warm-vs-cold throughput, shared-cache hit rates); suite
#:    rows grew ``adaptive_cache_hit`` and top-level ``cache_hits`` is
#:    now derived from the per-row flags.
#: 7: one architected-memory store: ArchState memory always pickles as
#:    a dict; MsspConfig lost the memory-store knob; bench summaries
#:    lost the paged-store stage and the memory-store key.
#: 8: task, recovery and master-failure trace records are slotted
#:    dataclasses, so cached results pickle without instance dicts.
#: 9: task records are no longer frozen (their pickled state changed
#:    shape); bench summaries grew ``calibration_cpu_seconds``.
#: 10: bench summaries lost the jit microbenchmark stages (the arch and
#:    master jit throughputs, speedups and link counters).
#: 11: prepared artifacts hold their sequential counts lazily (old
#:    pickles hold them as plain fields).
CACHE_SCHEMA = 11

_ENV_VAR = "REPRO_BENCH_CACHE"


def cache_dir() -> Optional[Path]:
    """The cache root, or ``None`` when persistence is disabled."""
    configured = os.environ.get(_ENV_VAR, "").strip()
    if configured.lower() in ("off", "none", "0"):
        return None
    if configured:
        return Path(configured)
    # Default: benchmarks/cache at the repository root (next to src/).
    return Path(__file__).resolve().parents[3] / "benchmarks" / "cache"


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": _canonical(dataclasses.asdict(value)),
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def digest(*parts: Any) -> str:
    """A stable hex digest over ``parts`` (configs, sizes, names...)."""
    payload = json.dumps(
        [CACHE_SCHEMA, _canonical(list(parts))],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def program_digest(program) -> str:
    """Content digest of a program: code, data image, and entry point."""
    hasher = hashlib.sha256()
    for instr in program.code:
        hasher.update(repr(
            (instr.op.name, instr.rd, instr.rs, instr.rt, instr.imm,
             instr.target)
        ).encode())
    for address in sorted(program.memory):
        hasher.update(f"{address}:{program.memory[address]};".encode())
    hasher.update(str(program.entry).encode())
    return hasher.hexdigest()[:20]


def _entry_path(kind: str, key: str) -> Optional[Path]:
    root = cache_dir()
    if root is None:
        return None
    return root / f"{kind}-{key}.pkl"


def load(kind: str, key: str) -> Optional[Any]:
    """The cached artifact for ``key``, or ``None`` on a miss."""
    path = _entry_path(kind, key)
    if path is None or not path.is_file():
        return None
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    except Exception:
        # Corrupt/stale entry (interrupted write, schema drift inside a
        # pickled object): treat as a miss; the recompute overwrites it.
        return None


def store(kind: str, key: str, value: Any) -> bool:
    """Persist ``value``; returns False when persistence is off/fails."""
    path = _entry_path(kind, key)
    if path is None:
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        with temp.open("wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)  # atomic: concurrent -j workers race safely
        return True
    except Exception:
        return False


def fetch(
    kind: str, key: str, compute: Callable[[], Any]
) -> Tuple[Any, bool]:
    """``(artifact, hit)`` — load from disk or compute-and-store."""
    cached = load(kind, key)
    if cached is not None:
        return cached, True
    value = compute()
    store(kind, key, value)
    return value, False


def clear(kind: Optional[str] = None) -> int:
    """Delete cache entries (all, or one ``kind``); returns the count."""
    root = cache_dir()
    if root is None or not root.is_dir():
        return 0
    pattern = f"{kind}-*.pkl" if kind else "*.pkl"
    removed = 0
    for path in root.glob(pattern):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
