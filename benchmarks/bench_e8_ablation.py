"""E8 — distillation-pass ablation (design-choice study).

DESIGN.md calls out four optimization passes as the distiller's levers;
this experiment disables each in turn and reports the resulting dynamic
distillation ratio and speedup on the representative workloads — the
ablation the paper's design discussion implies.

Expected shape: the full distiller dominates; disabling branch assertion
or DCE costs the most (they feed each other); value specialization
matters on the workloads built around stable loads (compress, crc).
"""

from repro.stats import Table, geomean, mean

from benchmarks.common import (
    PAPER_DISTILL,
    SWEEP_SUITE,
    bench_size,
    prepared,
    report,
    run_once,
    timed_row,
)

SWEEP_SCALE = 0.5

#: The sweep subset plus the workloads built around stable loads (crc)
#: and write-only buffers (stringops), so every pass has a witness.
ABLATION_SUITE = SWEEP_SUITE + ("crc", "stringops")

VARIANTS = (
    ("full", PAPER_DISTILL),
    ("no branch_removal", PAPER_DISTILL.without_pass("branch_removal")),
    ("no cold_code", PAPER_DISTILL.without_pass("cold_code")),
    ("no value_spec", PAPER_DISTILL.without_pass("value_spec")),
    ("no store_elim", PAPER_DISTILL.without_pass("store_elim")),
    ("no dce", PAPER_DISTILL.without_pass("dce")),
)


def run_e8():
    table = Table(
        ["variant", "mean dyn ratio", "geomean speedup"],
        title="E8: distillation pass ablation (design-choice study)",
    )
    by_variant = {}
    for label, config in VARIANTS:
        ratios, speedups = [], []
        for name in ABLATION_SUITE:
            size = bench_size(name, scale=SWEEP_SCALE)
            ready = prepared(name, size=size, distill_config=config)
            ratios.append(ready.distillation_ratio)
            row = timed_row(name, size=size, distill_config=config)
            speedups.append(row.speedup)
        by_variant[label] = (mean(ratios), geomean(speedups))
        table.add_row(label, *by_variant[label])
    return table, by_variant


def test_e8_ablation(benchmark):
    table, by_variant = run_once(benchmark, run_e8)
    report("e8_ablation", table)
    full_ratio, full_speedup = by_variant["full"]
    # Every ablation yields a distilled program at least as long as full.
    for label, (ratio, speedup) in by_variant.items():
        if label != "full":
            assert ratio >= full_ratio - 1e-9, label
    # Losing dead-code elimination hurts the master's path length most
    # (asserted branches leave their condition chains behind).
    assert by_variant["no dce"][0] > full_ratio + 0.05
    # And the full distiller has the best (or tied-best) speedup.
    assert full_speedup >= max(s for _, s in by_variant.values()) - 0.05
