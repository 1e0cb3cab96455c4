"""Command-line interface: ``mssp-repro`` (or ``python -m repro``).

Subcommands
-----------

``list``
    Show the workload suite.
``seq <workload>``
    Run a workload sequentially and print its result cells.
``distill <workload>``
    Profile + distill; print the distillation report (and, with
    ``--show-asm``, the distilled listing).
``run <workload>``
    Full pipeline: profile, distill, MSSP with equivalence check,
    timing; print the statistics row.
``suite``
    The E1-style table over every workload.
``lint``
    Static soundness report: check a workload's original program, its
    distillation (with per-pass IR verification), the pc map, the
    pre-decoded execution cache, the dataflow analyses and the
    speculation-safety prover's report, and the runtime's recorded
    event stream (in-order judgement, squash discard).  ``--format
    json`` emits the same findings machine-readably.
``analyze``
    Dataflow / speculation-safety report: per-region live-in safety
    classification (PROVEN / STABLE / UNPROVEN), observed squash risk
    from a differential check-mode run, and the statically skipped
    verify-compare count.  Exits nonzero if a PROVEN cell squashes.
``bench``
    Performance measurement in four stages: the serving benchmark
    (warm-vs-cold throughput and open-loop Poisson arrivals against the
    episode server), the interpreter microbenchmark (reference
    ``execute`` loop vs the pre-decoded engine), the
    E-suite through the persistent artifact cache, and the cluster
    sweep; writes the whole ``BENCH_summary.json`` (stamped with its
    commit), appends a line to ``BENCH_history.jsonl`` beside it, and
    can gate against a committed baseline.
``serve``
    Run the persistent multi-tenant episode server: JSONL requests on
    stdin (or ``--requests FILE``), JSONL responses on stdout, serving
    statistics on stderr; ``--warmup`` pre-distills and pre-runs
    workloads at startup.
``trace``
    Capture a workload run's clock-stamped runtime event stream and
    ``--export`` it as JSONL, or ``--import`` a trace back and
    summarize it (event kinds, time span, rebuilt trace records, and
    the calibrated execution-cost rate).
``sim``
    Trace-driven cluster simulation: capture one workload's event
    stream and print its timing at several slave counts (``--slaves
    2,8,16,64``) and under contention / heterogeneity / failure
    scenarios — the sweep ``repro bench`` records for ``compress``.
    Like the E1–E13 tables it reproduces the paper's experiment (E20),
    so it distills at ``PAPER_TASK_SIZE`` (150); every other command
    distills at the default task size (300) unless given
    ``--task-size``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.config import RUNTIME_CHOICES, DistillConfig, TimingConfig
from repro.machine.decoded import EXEC_TIERS
from repro.stats import Table, geomean
from repro.workloads import RESULT_BASE, WORKLOADS, get_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mssp-repro",
        description="Master/Slave Speculative Parallelization reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite")

    seq = sub.add_parser("seq", help="run a workload sequentially")
    _add_workload_args(seq)

    distill = sub.add_parser("distill", help="profile and distill a workload")
    _add_workload_args(distill)
    distill.add_argument(
        "--show-asm", action="store_true",
        help="print the distilled program listing",
    )
    _add_task_size_arg(distill)

    run = sub.add_parser("run", help="run a workload under MSSP")
    _add_workload_args(run)
    run.add_argument("--slaves", type=_at_least(1), default=8)
    _add_task_size_arg(run)
    run.add_argument(
        "--runtime", choices=RUNTIME_CHOICES, default="eager",
        help="slave-execution backend: eager in-process tasks or a "
             "process pool of slave workers (both backends are "
             "bit-identical)",
    )
    run.add_argument(
        "--workers", type=_at_least(1), default=None,
        help="slave workers for the process runtime "
             "(default: MsspConfig.num_slaves)",
    )
    run.add_argument(
        "--exec-tier", choices=EXEC_TIERS, default=None,
        help="execution tier for master/slaves/recovery (default: the "
             "REPRO_EXEC environment variable, then decoded); all tiers "
             "are bit-identical",
    )
    run.add_argument(
        "--adaptive", action="store_true",
        help="enable the adaptive prediction loop: live-in value "
             "predictors plus squash-driven online re-distillation "
             "(shortcut for --predictors auto --redistill-threshold 2)",
    )
    run.add_argument(
        "--predictors",
        choices=("off", "last", "stride", "context", "auto", "observe"),
        default=None,
        help="live-in value predictors for UNPROVEN checkpoint cells "
             "('auto' races all kinds per cell; 'observe' trains and "
             "reports but never overrides)",
    )
    run.add_argument(
        "--redistill-threshold", type=int, default=None,
        dest="redistill_threshold", metavar="N",
        help="live-in squashes in one fork region that trigger online "
             "re-distillation (default: off)",
    )

    timeline = sub.add_parser(
        "timeline", help="render an ASCII execution timeline"
    )
    _add_workload_args(timeline)
    timeline.add_argument("--slaves", type=_at_least(1), default=8)
    timeline.add_argument("--width", type=int, default=96)
    timeline.add_argument(
        "--cycles", type=float, default=2500.0,
        help="window length in cycles (0 = whole run)",
    )

    sub.add_parser("suite", help="run the whole suite (E1-style table)")

    lint = sub.add_parser(
        "lint", help="statically check a workload's distillation"
    )
    lint.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS), default=None,
        help="workload to lint (or use --all)",
    )
    lint.add_argument(
        "--all", action="store_true", dest="lint_all",
        help="lint every registered workload",
    )
    lint.add_argument("--size", type=int, default=None)
    _add_task_size_arg(lint)
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json shares its finding schema with "
             "'analyze --format json')",
    )

    analyze = sub.add_parser(
        "analyze",
        help="dataflow + speculation-safety analysis of a workload",
    )
    analyze.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS), default=None,
        help="workload to analyze (or use --all)",
    )
    analyze.add_argument(
        "--all", action="store_true", dest="analyze_all",
        help="analyze every registered workload",
    )
    analyze.add_argument("--size", type=int, default=None)
    _add_task_size_arg(analyze)
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json shares its finding schema with "
             "'lint --format json')",
    )

    bench = sub.add_parser(
        "bench", help="run the performance benchmark suite"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="shortcut for --scale 0.1 (CI smoke configuration)",
    )
    bench.add_argument(
        "--scale", type=float, default=None,
        help="workload size scale factor (default: 1.0)",
    )
    bench.add_argument(
        "--workloads", nargs="*", default=None,
        help="subset of suite workloads (default: all)",
    )
    bench.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="evaluate workloads in N parallel processes",
    )
    bench.add_argument(
        "--output", default="BENCH_summary.json",
        help="machine-readable summary path",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline JSON to gate against (exit 1 on >30%% regression)",
    )
    bench.add_argument(
        "--write-baseline", nargs="?", const="benchmarks/baseline.json",
        default=None, metavar="PATH", dest="write_baseline",
        help="regenerate the committed baseline floors from this run's "
             "measurements (default path: benchmarks/baseline.json)",
    )
    bench.add_argument(
        "--clear-cache", action="store_true",
        help="drop the persistent artifact cache before running",
    )
    bench.add_argument(
        "--runtime", choices=RUNTIME_CHOICES, default="eager",
        help="engine backend of the serving stage; process also "
             "measures its wall-clock speedup per suite workload "
             "(-j sets the slave worker count)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the persistent multi-tenant episode server "
             "(JSONL requests on stdin, JSONL responses on stdout)",
    )
    serve.add_argument(
        "--workers", type=_at_least(1), default=2,
        help="server worker fleet size (default: 2)",
    )
    serve.add_argument(
        "--capacity", type=int, default=4,
        help="episodes one worker may hold at once (default: 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32, dest="queue_depth",
        help="bounded backlog depth for admission='wait' (default: 32)",
    )
    serve.add_argument(
        "--admission", choices=("wait", "shed"), default="wait",
        help="admission policy when the fleet is saturated: queue "
             "bounded ('wait') or reject immediately ('shed')",
    )
    serve.add_argument(
        "--max-batch", type=int, default=4, dest="max_batch",
        help="compatible queued episodes folded into one service turn "
             "(default: 4)",
    )
    serve.add_argument(
        "--warmup", default=None, metavar="W1[,W2...]",
        help="workloads to pre-distill and pre-run at startup",
    )
    serve.add_argument(
        "--runtime", choices=RUNTIME_CHOICES, default="eager",
        help="slave-execution backend for served episodes "
             "(default: eager)",
    )
    serve.add_argument(
        "--exec-tier", choices=EXEC_TIERS, default=None,
        help="execution tier for served episodes (default: REPRO_EXEC, "
             "then decoded)",
    )
    serve.add_argument(
        "--requests", default=None, metavar="PATH",
        help="read JSONL requests from a file instead of stdin",
    )

    trace = sub.add_parser(
        "trace",
        help="capture or inspect a clock-stamped runtime event trace",
    )
    trace.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS), default=None,
        help="workload to run and capture (omit with --import)",
    )
    trace.add_argument("--size", type=int, default=None)
    trace.add_argument(
        "--runtime", choices=RUNTIME_CHOICES, default="eager",
        help="slave-execution backend for the captured run",
    )
    trace.add_argument(
        "--slaves", type=_at_least(1), default=None,
        help="slave workers for the captured run "
             "(default: MsspConfig.num_slaves)",
    )
    trace.add_argument(
        "--export", default=None, metavar="OUT.jsonl", dest="export_path",
        help="run the workload and write the captured event stream "
             "as JSONL",
    )
    trace.add_argument(
        "--import", default=None, metavar="IN.jsonl", dest="import_path",
        help="read a JSONL trace back and summarize it (kinds, span, "
             "rebuilt trace records, calibrated cost rate)",
    )

    sim = sub.add_parser(
        "sim",
        help="trace-driven cluster simulation: capture a workload's "
             "event stream and time it at several slave counts and "
             "cluster scenarios",
    )
    sim.add_argument(
        "workload", nargs="?", choices=sorted(WORKLOADS),
        default="compress",
        help="workload to capture and sweep (default: compress)",
    )
    sim.add_argument("--size", type=int, default=None)
    sim.add_argument(
        "--slaves", default=None, metavar="N1[,N2...]",
        help="simulated slave counts to sweep (default: 2,8,16,64, "
             "as repro bench)",
    )

    report = sub.add_parser(
        "report", help="write a markdown report of a suite run"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="output file path"
    )
    report.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size scale factor",
    )
    report.add_argument(
        "--workloads", nargs="*", default=None,
        help="subset of workloads (default: all)",
    )
    return parser


def _add_workload_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("workload", choices=sorted(WORKLOADS))
    sub.add_argument("--size", type=int, default=None)


def _add_task_size_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--task-size", type=_at_least(2), default=None,
        help="target dynamic instructions per task (at least 2; "
             "default 300, sized to this implementation's per-task "
             "cost; the paper's experiment tables use 150, "
             "PAPER_TASK_SIZE)",
    )


def _at_least(low: int):
    """An argparse ``type``: an int no smaller than ``low``.

    Out-of-range values end as a usage error (exit 2) at parse time
    instead of a config-validation traceback later.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _distill_config(args) -> Optional[DistillConfig]:
    task_size = getattr(args, "task_size", None)
    if task_size is None:
        return None
    return dataclasses.replace(DistillConfig(), target_task_size=task_size)


def cmd_list(_args) -> int:
    table = Table(["workload", "default size", "description"])
    for spec in WORKLOADS.values():
        table.add_row(spec.name, spec.default_size, spec.description)
    print(table.render())
    return 0


def cmd_seq(args) -> int:
    from repro.machine import run_to_halt

    instance = get_workload(args.workload).instance(args.size)
    result = run_to_halt(instance.program)
    print(f"{instance.name}: halted after {result.steps} instructions")
    for offset in range(4):
        value = result.state.load(RESULT_BASE + offset)
        if value:
            print(f"  result[{offset}] = {value}")
    return 0


def cmd_distill(args) -> int:
    from repro.experiments.harness import prepare

    prepared = prepare(
        get_workload(args.workload), size=args.size,
        distill_config=_distill_config(args),
    )
    print(prepared.distillation.report.describe())
    print(f"dynamic: {prepared.seq_instrs} -> {prepared.distilled_instrs} "
          f"({prepared.distillation_ratio:.2f}x)")
    if args.show_asm:
        from repro.isa import disassemble

        listing = disassemble(prepared.distillation.distilled)
        print(listing.split("        .data")[0])
    return 0


def cmd_run(args) -> int:
    from repro.config import MsspConfig
    from repro.experiments import evaluate, prepare

    prepared = prepare(
        get_workload(args.workload), size=args.size,
        distill_config=_distill_config(args),
    )
    timing = dataclasses.replace(TimingConfig(), n_slaves=args.slaves)
    # Built from the flags every time: an explicit runtime beats
    # REPRO_RUNTIME, which only a None config field defers to.
    mssp_config = MsspConfig(runtime=args.runtime, exec_tier=args.exec_tier)
    if args.adaptive:
        mssp_config = mssp_config.with_adaptation()
    if args.predictors is not None:
        mssp_config = dataclasses.replace(
            mssp_config, predictors=args.predictors
        )
    if args.redistill_threshold is not None:
        mssp_config = dataclasses.replace(
            mssp_config, redistill_threshold=args.redistill_threshold
        )
    if args.workers is not None:
        mssp_config = dataclasses.replace(
            mssp_config, num_slaves=args.workers
        )
    row = evaluate(prepared, mssp_config=mssp_config, timing_config=timing)
    counters = row.counters
    print(f"{row.name}: equivalent to SEQ (checked)")
    print(f"  runtime:                 {mssp_config.runtime} "
          f"({mssp_config.num_slaves} slave workers)")
    if mssp_config.exec_tier is not None:
        print(f"  exec tier:               {mssp_config.exec_tier}")
    print(f"  sequential instructions: {row.seq_instrs}")
    print(f"  distillation ratio:      {prepared.distillation_ratio:.2f}")
    print(f"  tasks committed/squashed: "
          f"{counters.tasks_committed}/{counters.tasks_squashed}")
    print(f"  live-in accuracy:        {counters.live_in_accuracy:.3f}")
    if (
        mssp_config.predictors != "off"
        or mssp_config.redistill_threshold is not None
    ):
        print(f"  predictor hits/misses:   "
              f"{counters.predictor_hits}/{counters.predictor_misses}")
        print(f"  redistillations:         {counters.redistillations}")
    print(f"  MSSP cycles:             {row.breakdown.total_cycles:.0f}")
    print(f"  speedup vs in-order:     {row.speedup:.2f}x "
          f"({args.slaves} slaves)")
    return 0


def cmd_suite(_args) -> int:
    from repro.experiments import evaluate, prepare

    table = Table(
        ["benchmark", "ratio", "squash", "speedup"],
        title="MSSP suite summary (8 slaves, default configuration)",
    )
    speedups: List[float] = []
    for name in WORKLOADS:
        prepared = prepare(get_workload(name))
        row = evaluate(prepared)
        speedups.append(row.speedup)
        table.add_row(
            name, prepared.distillation_ratio,
            row.counters.squash_rate, row.speedup,
        )
        print(f"  {name}: done", file=sys.stderr)
    table.add_row("geomean", "", "", geomean(speedups))
    print(table.render())
    return 0


def cmd_timeline(args) -> int:
    from repro.experiments import evaluate, prepare
    from repro.timing import render_timeline, simulate_mssp, utilization

    prepared = prepare(get_workload(args.workload), size=args.size)
    row = evaluate(prepared)
    timing = dataclasses.replace(TimingConfig(), n_slaves=args.slaves)
    breakdown = simulate_mssp(row.mssp, timing, schedule=True)
    window = breakdown.total_cycles
    if args.cycles > 0:
        window = min(window, args.cycles)
    busy = utilization(breakdown, args.slaves)
    print(
        f"{args.workload}: {breakdown.total_cycles:.0f} cycles, "
        f"slave utilization {busy:.0%}"
    )
    print(render_timeline(breakdown, width=args.width, end=window))
    print("legend: ==== master   #### committed   xxxx squashed   "
          "C commit   rrrr recovery")
    return 0


def _lint_workload(name, args, config):
    """All checker reports for one workload, stopping at the first layer
    that fails.  Returns ``(reports, distill_error)``."""
    from repro.analysis.checker import (
        check_dataflow,
        check_decoded,
        check_distillation,
        check_program,
        check_runtime_execution,
        check_safety_report,
        check_safety_runtime,
        check_server_execution,
    )
    from repro.analysis.specsafe import prove_safety
    from repro.distill.distiller import Distiller
    from repro.errors import CheckFailure, DistillError
    from repro.experiments.harness import training_profile

    instance = get_workload(name).instance(args.size)
    reports = []

    def gate(report) -> bool:
        reports.append(report)
        return report.ok

    if not gate(check_program(instance.program, subject=name)):
        return reports, None
    if not gate(check_decoded(instance.program, subject=name)):
        return reports, None
    if not gate(check_dataflow(instance.program, subject=name)):
        return reports, None
    profile = training_profile(instance)
    try:
        distillation = Distiller(config).distill(instance.program, profile)
    except CheckFailure as failure:
        from repro.analysis.checker import CheckReport

        stage = failure.pass_name or "?"
        report = CheckReport(subject=f"{name}: distillation pass {stage!r}")
        report.findings.extend(failure.findings)
        reports.append(report)
        return reports, None
    except DistillError as error:
        return reports, str(error)
    if not gate(check_distillation(
        instance.program, distillation.distilled, distillation.pc_map,
        subject=f"{name}: distilled",
    )):
        return reports, None
    if not gate(check_decoded(
        distillation.distilled, subject=f"{name}: distilled decoded"
    )):
        return reports, None
    safety = prove_safety(
        instance.program, distillation.distilled, distillation.pc_map
    )
    if not gate(check_safety_report(
        instance.program, distillation.pc_map, safety, subject=name,
    )):
        return reports, None
    if not gate(check_safety_runtime(
        instance.program, distillation, subject=f"{name}: safety runtime"
    )):
        return reports, None
    if not gate(check_runtime_execution(
        instance.program, distillation, subject=f"{name}: runtime",
        profile=profile,
    )):
        return reports, None
    gate(check_server_execution(
        name, instance.program, distillation,
        subject=f"{name}: server", profile=profile, size=instance.size,
    ))
    return reports, None


def _lint_names(args, flag: str):
    if getattr(args, flag):
        return sorted(WORKLOADS)
    if args.workload is not None:
        return [args.workload]
    return None


def cmd_lint(args) -> int:
    import json

    names = _lint_names(args, "lint_all")
    if names is None:
        print("lint: give a workload name or --all", file=sys.stderr)
        return 2

    base = _distill_config(args) or DistillConfig()
    config = dataclasses.replace(base, verify_after_each_pass=True)
    failures = 0
    warnings = 0
    payload = []
    for name in names:
        reports, distill_error = _lint_workload(name, args, config)
        ok = distill_error is None and all(r.ok for r in reports)
        if not ok:
            failures += 1
        warnings += sum(len(r.warnings) for r in reports)
        if args.format == "json":
            payload.append({
                "workload": name,
                "ok": ok,
                "error": distill_error,
                "reports": [r.to_json() for r in reports],
            })
            continue
        for report in reports:
            print(report.render())
        if distill_error is not None:
            print(f"{name}: distillation FAIL: {distill_error}")
    if args.format == "json":
        print(json.dumps({
            "ok": not failures,
            "failures": failures,
            "warnings": warnings,
            "workloads": payload,
        }, indent=2))
    else:
        verdict = "clean" if not failures else f"{failures} FAILED"
        print(
            f"lint: {len(names)} workload(s), {verdict}, "
            f"{warnings} warning(s)"
        )
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    import json

    from repro.analysis.checker import (
        check_safety_report,
        CheckFinding,
        CheckReport,
        Severity,
    )
    from repro.analysis.specsafe import prove_safety
    from repro.config import MsspConfig
    from repro.distill.distiller import Distiller
    from repro.errors import CheckFailure, DistillError
    from repro.experiments.harness import training_profile
    from repro.mssp.engine import MsspEngine

    names = _lint_names(args, "analyze_all")
    if names is None:
        print("analyze: give a workload name or --all", file=sys.stderr)
        return 2

    config = _distill_config(args) or DistillConfig()
    # "observe" trains the live-in value predictors on the run without
    # ever overriding a checkpoint, so the squash-risk table can report
    # what a predictor *would* achieve per UNPROVEN cell.
    mssp_config = MsspConfig(static_safety="check", predictors="observe")
    exit_code = 0
    payload = []
    for name in names:
        instance = get_workload(name).instance(args.size)
        try:
            distillation = Distiller(config).distill(
                instance.program, training_profile(instance)
            )
        except DistillError as error:
            exit_code = 1
            if args.format == "json":
                payload.append({"workload": name, "error": str(error)})
            else:
                print(f"== {name} ==\n  distillation FAIL: {error}")
            continue
        safety = prove_safety(
            instance.program, distillation.distilled, distillation.pc_map
        )
        shape_report = check_safety_report(
            instance.program, distillation.pc_map, safety, subject=name,
        )
        # Differential check-mode run: every live-in is still compared;
        # a mismatch on a PROVEN cell raises inside the engine (DF005).
        runtime_report = CheckReport(subject=f"{name}: safety runtime")
        proven_squash = None
        counters = None
        per_anchor = {}
        predictor_stats = {}
        try:
            engine = MsspEngine(
                instance.program, distillation, config=mssp_config
            )
            result = engine.run_and_check()
            counters = result.counters
            bank = engine.predictor
            if bank is not None:
                for anchor in safety.regions:
                    stats = bank.stats_for(anchor)
                    if stats:
                        predictor_stats[anchor] = stats
            for record in result.records:
                start_pc = getattr(record, "start_pc", None)
                if start_pc is None:
                    continue
                row = per_anchor.setdefault(
                    start_pc, {"tasks": 0, "squashed": 0, "reasons": {}}
                )
                row["tasks"] += 1
                if not record.committed:
                    row["squashed"] += 1
                    reason = record.squash_reason
                    row["reasons"][reason] = (
                        row["reasons"].get(reason, 0) + 1
                    )
        except CheckFailure as failure:
            proven_squash = str(failure)
            runtime_report.findings.append(CheckFinding(
                check_id="DF005", severity=Severity.ERROR,
                message=proven_squash,
            ))
        findings = shape_report.findings + runtime_report.findings
        if any(f.severity is Severity.ERROR for f in findings):
            exit_code = 1
        if args.format == "json":
            payload.append({
                "workload": name,
                "size": instance.size,
                "safety": safety.to_json(),
                "runtime": {
                    "proven_squash": proven_squash,
                    "static_verify_skips": (
                        counters.static_verify_skips if counters else None
                    ),
                    "live_ins_checked": (
                        counters.live_ins_checked if counters else None
                    ),
                    "tasks_committed": (
                        counters.tasks_committed if counters else None
                    ),
                    "tasks_squashed": (
                        counters.tasks_squashed if counters else None
                    ),
                },
                "regions": [
                    dict(
                        safety.regions[anchor].to_json(),
                        tasks=per_anchor.get(anchor, {}).get("tasks", 0),
                        squashed=per_anchor.get(anchor, {}).get(
                            "squashed", 0
                        ),
                        squash_reasons=per_anchor.get(anchor, {}).get(
                            "reasons", {}
                        ),
                        predictors=[
                            {
                                "reg": reg,
                                "kind": cell.kind,
                                "hit_rate": cell.hit_rate,
                                "observations": cell.observations,
                                "master_misses": cell.master_misses,
                            }
                            for reg, cell in sorted(
                                predictor_stats.get(anchor, {}).items()
                            )
                        ],
                    )
                    for anchor in sorted(safety.regions)
                ],
                "findings": [f.to_json() for f in findings],
            })
            continue
        print(f"== {name} (size {instance.size}) ==")
        if safety.bailed:
            print(f"  prover bailed: {safety.bail_reason}")
        table = Table(
            ["anchor", "live-ins", "proven", "stable", "unproven",
             "mem", "tasks", "squashed", "top reason", "predictors"],
        )
        for anchor in sorted(safety.regions):
            region = safety.regions[anchor]
            counts = region.counts()
            stats = per_anchor.get(anchor, {})
            reasons = stats.get("reasons", {})
            top = max(reasons, key=reasons.get) if reasons else "-"
            cells = predictor_stats.get(anchor, {})
            predicted = " ".join(
                f"r{reg}:{cell.kind} {cell.hit_rate:.0%}"
                for reg, cell in sorted(cells.items())
            ) or "-"
            table.add_row(
                anchor, len(region.cells), counts["proven"],
                counts["stable"], counts["unproven"],
                "yes" if region.mem_proven else "no",
                stats.get("tasks", 0), stats.get("squashed", 0), top,
                predicted,
            )
        print(table.render())
        if counters is not None:
            print(
                f"  static verify skips: {counters.static_verify_skips} "
                f"of {counters.live_ins_checked} live-in compares; "
                f"{counters.tasks_committed} committed / "
                f"{counters.tasks_squashed} squashed"
            )
        for finding in findings:
            print("  " + finding.render())
        if proven_squash is not None:
            print(f"  DF005 VIOLATION: {proven_squash}")
    if args.format == "json":
        print(json.dumps(
            {"ok": exit_code == 0, "workloads": payload}, indent=2
        ))
    return exit_code


def cmd_serve(args) -> int:
    """JSONL front-end over the in-process episode server.

    One request per input line — ``{"workload": "crc", "size": 6,
    "tenant": "a"}`` or ``{"digest": "..."}`` — submitted as a stream;
    one JSON response per line on stdout in request order, serving
    statistics on stderr at end of stream.  No sockets: pipe requests
    in, pipe responses out.
    """
    import json

    from repro.config import MsspConfig, ServeConfig
    from repro.serve import EpisodeServer, EpisodeRequest, state_digest

    warmup = tuple(
        name.strip()
        for name in (args.warmup or "").split(",") if name.strip()
    )
    unknown = [name for name in warmup if name not in WORKLOADS]
    if unknown:
        print(f"serve: unknown warmup workload(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    mssp_config = MsspConfig(
        runtime=args.runtime, exec_tier=args.exec_tier
    )
    server = EpisodeServer(
        ServeConfig(
            workers=args.workers, worker_capacity=args.capacity,
            max_queue_depth=args.queue_depth, admission=args.admission,
            max_batch=args.max_batch, warmup=warmup,
        ),
        mssp_config=mssp_config,
    )
    stream = open(args.requests) if args.requests else sys.stdin
    handles = []
    rejected = []
    try:
        with server:
            for line in stream:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    payload = json.loads(line)
                    request = EpisodeRequest(
                        workload=payload.get("workload"),
                        digest=payload.get("digest"),
                        size=payload.get("size"),
                        config=mssp_config,
                        tenant=str(payload.get("tenant", "default")),
                    )
                    if (
                        request.workload is not None
                        and request.workload not in WORKLOADS
                    ):
                        raise ValueError(
                            f"unknown workload {request.workload!r}"
                        )
                except Exception as error:  # noqa: BLE001 - per line
                    rejected.append({
                        "status": "error",
                        "error": f"bad request line: {error}",
                    })
                    continue
                handles.append(server.submit(request))
            for handle in handles:
                response = handle.result()
                out = {
                    "request_id": response.request_id,
                    "status": response.status,
                    "workload": response.workload,
                    "digest": response.digest,
                    "tenant": response.tenant,
                    "worker": response.worker,
                    "batched": response.batched,
                    "cache": response.cache,
                    "latency_ms": round(response.latency_seconds * 1e3, 3),
                    "queue_ms": round(response.queue_seconds * 1e3, 3),
                }
                if response.ok:
                    counters = response.result.counters
                    out["state_digest"] = state_digest(
                        response.result.final_state
                    )
                    out["tasks_committed"] = counters.tasks_committed
                    out["tasks_squashed"] = counters.tasks_squashed
                else:
                    out["error"] = response.error
                print(json.dumps(out), flush=True)
            for out in rejected:
                print(json.dumps(out), flush=True)
            stats = dict(server.stats.summary())
            stats["cache"] = server.cache_summary()
    finally:
        if args.requests:
            stream.close()
    print(f"serve: {json.dumps(stats)}", file=sys.stderr)
    return 0


def _print_serve(serve) -> None:
    cold = serve["cold"]
    warm = serve["warm"]
    print(
        f"serving benchmark ({', '.join(serve['workloads'])}; "
        f"runtime {serve['runtime'] or 'default'}, "
        f"{serve['serve']['workers']} server workers):"
    )
    print(f"  cold (1 fresh pipeline/episode): "
          f"{cold['episodes_per_sec']:>10.2f} episodes/sec")
    print(f"  warm server (burst):             "
          f"{warm['episodes_per_sec']:>10.2f} episodes/sec")
    print(f"  warm vs cold:                    "
          f"{serve['speedup_vs_cold']:>10.2f}x")
    print(f"  shared-cache hit rate:           "
          f"{serve['cache_hit_rate']:>10.0%}")
    table = Table(
        ["rate/s", "offered", "done", "shed", "eps/s", "p50 ms",
         "p99 ms", "p99.9 ms", "maxQ"],
        title="open-loop Poisson arrivals",
    )
    for row in serve["open_loop"]:
        table.add_row(
            f"{row['rate']:g}", row["offered"], row["completed"],
            row["shed"], f"{row['episodes_per_sec']:.2f}",
            f"{row['latency_p50_ms']:.2f}",
            f"{row['latency_p99_ms']:.2f}",
            f"{row['latency_p999_ms']:.2f}",
            row["max_queue_depth"],
        )
    print(table.render())


def _print_sim(sim_bench) -> None:
    print(f"cluster simulation ({sim_bench['workload']}: "
          f"{sim_bench['tasks_replayed']} tasks, "
          f"{sim_bench['total_instrs']} sequential instrs)")
    table = Table(
        ["slaves", "sim cycles", "speedup", "stall", "commit-bound"],
        title="slave-count sweep",
    )
    for row in sim_bench["sweep"]:
        table.add_row(
            row["n_slaves"], f"{row['sim_cycles']:.1f}",
            f"{row['speedup']:.2f}x",
            f"{row['master_stall_cycles']:.0f}",
            row["commit_bound_tasks"],
        )
    print(table.render())
    stable = Table(
        ["scenario", "slaves", "sim cycles", "vs ideal", "speedup"],
        title="cluster scenarios",
    )
    for row in sim_bench["scenarios"]:
        stable.add_row(
            row["scenario"], row["n_slaves"],
            f"{row['sim_cycles']:.1f}",
            f"{row['slowdown_vs_ideal']:.2f}x",
            f"{row['speedup']:.2f}x",
        )
    print(stable.render())


def cmd_bench(args) -> int:
    from repro.experiments import cache as artifact_cache
    from repro.experiments.bench import (
        append_history,
        check_baseline,
        run_bench,
        write_baseline,
        write_summary,
    )

    if args.clear_cache:
        removed = artifact_cache.clear()
        print(f"cleared {removed} cached artifact(s)", file=sys.stderr)
    scale = args.scale
    if scale is None:
        scale = 0.1 if args.quick else 1.0
    summary = run_bench(
        workloads=args.workloads, scale=scale, jobs=args.jobs,
        runtime=args.runtime,
    )
    _print_serve(summary["serve_bench"])
    micro = summary["microbenchmark"]
    print(
        f"interpreter microbenchmark ({micro['workload']}, "
        f"{micro['dynamic_instrs']} instrs):"
    )
    print(f"  reference execute() loop: "
          f"{micro['legacy_instrs_per_sec']:>12,.0f} instrs/sec")
    print(f"  pre-decoded engine:       "
          f"{micro['decoded_instrs_per_sec']:>12,.0f} instrs/sec")
    print(f"  decoded MSSP episodes:    "
          f"{micro['e2e_instrs_per_sec']:>12,.0f} instrs/sec")
    print(f"  decoded vs reference:     {micro['speedup']:>12.2f}x")
    table = Table(
        ["workload", "size", "wall s", "Msim/s", "speedup",
         "squash", "adapt", "redist", "cache"],
        title=f"E-suite (scale {scale:g}, -j {args.jobs}; squash/adapt = "
              f"squash rate without/with the adaptive prediction loop)",
    )
    for row in summary["suite"]:
        table.add_row(
            row["workload"], row["size"], f"{row['wall_seconds']:.3f}",
            f"{row['instrs_per_sec'] / 1e6:.2f}",
            f"{row['speedup']:.2f}",
            f"{row['squash_rate']:.3f}",
            f"{row['adaptive_squash_rate']:.3f}",
            row["redistillations"],
            "hit" if row["cache_hit"] else "miss",
        )
    print(table.render())
    if args.runtime != "eager":
        backend = summary["suite"][0]["pipelined_runtime"] if (
            summary["suite"]
        ) else args.runtime
        ptable = Table(
            ["workload", "eager s", f"{backend} s", "measured", "identical"],
            title=f"{backend} runtime wall clock "
                  f"({max(2, args.jobs)} slave workers, "
                  f"{summary['cpu_count']} CPUs)",
        )
        for row in summary["suite"]:
            ptable.add_row(
                row["workload"],
                f"{row['wall_eager_seconds']:.3f}",
                f"{row['wall_parallel_seconds']:.3f}",
                f"{row['measured_parallel_speedup']:.2f}x",
                "yes" if row["parallel_identical"] else "NO",
            )
        print(ptable.render())
        if not all(r["parallel_identical"] for r in summary["suite"]):
            print(f"bench: {backend} runtime DIVERGED from eager",
                  file=sys.stderr)
            return 1
    print(
        f"suite wall time {summary['suite_wall_seconds']:.2f}s, "
        f"{summary['cache_hits']}/{len(summary['suite'])} cache hits "
        f"({summary['cache_dir']})"
    )
    _print_sim(summary["sim_bench"])
    write_summary(summary, args.output)
    history = append_history(summary, args.output)
    print(f"wrote {args.output}, appended a line to {history}")
    if args.write_baseline is not None:
        write_baseline(summary, args.write_baseline)
        print(f"wrote baseline {args.write_baseline}")
    if args.baseline is not None:
        problems = check_baseline(summary, args.baseline)
        for problem in problems:
            print(f"bench: REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"bench: within baseline {args.baseline}")
    return 0


def _trace_summary(events) -> dict:
    from collections import Counter

    from repro.timing.simulator import records_from_events

    kinds = Counter(event.kind for event in events)
    stamps = [event.at for event in events]
    summary = {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "span": (max(stamps) - min(stamps)) if stamps else 0.0,
        "records": len(records_from_events(events)),
    }
    try:
        summary["calibrated_slave_cpi"] = TimingConfig.calibrate(
            events
        ).slave_cpi
    except ValueError:
        summary["calibrated_slave_cpi"] = None
    return summary


def cmd_trace(args) -> int:
    try:
        return _trace(args)
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2


def _trace(args) -> int:
    import contextlib
    import json

    from repro.config import MsspConfig
    from repro.experiments.bench import capture_trace
    from repro.timing.tracefile import export_events, import_events

    if args.import_path is not None:
        events = import_events(args.import_path)
        summary = _trace_summary(events)
        print(f"imported {summary['events']} event(s) "
              f"from {args.import_path}")
        print(f"  kinds:   {json.dumps(summary['kinds'])}")
        print(f"  span:    {summary['span']:.6f}s "
              f"({summary['records']} trace record(s))")
        rate = summary["calibrated_slave_cpi"]
        if rate is not None:
            print(f"  calibrated cost: {rate:.3e} s/instr")
        else:
            print("  calibrated cost: n/a (no measured task costs)")
        return 0
    if args.workload is None:
        print("trace: give a workload to capture or --import a trace",
              file=sys.stderr)
        return 2
    # Open the export file first: a bad path fails before the capture.
    with (
        open(args.export_path, "w", encoding="utf-8")
        if args.export_path is not None else contextlib.nullcontext()
    ) as out:
        config = MsspConfig(runtime=args.runtime)
        if args.slaves is not None:
            config = dataclasses.replace(config, num_slaves=args.slaves)
        prepared, _, events = capture_trace(args.workload, args.size, config)
        summary = _trace_summary(events)
        print(f"captured {summary['events']} event(s) from {prepared.name} "
              f"({args.runtime} runtime)")
        print(f"  kinds:   {json.dumps(summary['kinds'])}")
        print(f"  span:    {summary['span']:.6f}s "
              f"({summary['records']} trace record(s))")
        if out is not None:
            count = export_events(events, out)
            print(f"wrote {count} event(s) to {args.export_path}")
    return 0


def cmd_sim(args) -> int:
    from repro.experiments.bench import SIM_SLAVE_COUNTS, run_sim_bench

    slave_counts = SIM_SLAVE_COUNTS
    if args.slaves is not None:
        try:
            slave_counts = tuple(
                int(part) for part in args.slaves.split(",") if part.strip()
            )
        except ValueError:
            print(f"sim: bad --slaves value {args.slaves!r}",
                  file=sys.stderr)
            return 2
    if not slave_counts or any(n < 1 for n in slave_counts):
        print("sim: --slaves needs positive slave counts", file=sys.stderr)
        return 2
    _print_sim(run_sim_bench(args.workload, slave_counts, args.size))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(
        workload_names=args.workloads, size_scale=args.scale
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


COMMANDS = {
    "list": cmd_list,
    "seq": cmd_seq,
    "distill": cmd_distill,
    "run": cmd_run,
    "timeline": cmd_timeline,
    "suite": cmd_suite,
    "lint": cmd_lint,
    "analyze": cmd_analyze,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "sim": cmd_sim,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
