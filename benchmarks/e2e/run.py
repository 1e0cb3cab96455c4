"""Run one end-to-end workload: ``python3 benchmarks/e2e/run.py
--workload W --seed S --seconds N --trace 0|1``.

Finds ``src/`` beside this directory and refuses to run without it, so
the benchmark always measures the checkout it lives in.  The library's
tier/runtime/memory overrides are removed from the environment first,
so the defaults are what gets measured.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no src/repro under {ROOT}; nothing to measure")
    for key in list(os.environ):
        if key in ("REPRO_EXEC", "REPRO_MEM", "REPRO_RUNTIME") or (
            key.startswith("REPRO_JIT_")
        ):
            del os.environ[key]
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e.bench import main

    sys.exit(main())
