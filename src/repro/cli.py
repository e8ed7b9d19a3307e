"""Command-line interface.

Drives the most common flows without writing Python::

    neurometer report --point 64,2,2,4            # model one design point
    neurometer validate                           # Figs. 3-5 validation
    neurometer simulate --workload resnet --batch 8 --point 64,2,2,4
    neurometer dse --batch 1                      # Sec. III key points
    neurometer dse --full-grid --journal j.jsonl  # crash-safe, resumable
    neurometer sparsity                           # Fig. 11 table
    neurometer doctor                             # integrity self-check
    neurometer lint src --baseline lint_baseline.json   # static analysis

(Equivalently: ``python -m repro <command> ...``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.arch.component import ModelContext
from repro.config.presets import (
    eyeriss,
    eyeriss_context,
    tpu_v1,
    tpu_v1_context,
    tpu_v2,
    tpu_v2_context,
)
from repro.dse.engine import run_sweep
from repro.dse.space import DesignPoint
from repro.dse.sparsity_study import STUDY_ARCHITECTURES, sparsity_sweep
from repro.errors import NeuroMeterError
from repro.perf.simulator import Simulator
from repro.power.runtime import runtime_power
from repro.report.tables import (
    breakdown_table,
    comparison_table,
    format_table,
)
from repro.tech.node import node
from repro.validation.published import EYERISS, TPU_V1, TPU_V2
from repro.workloads import inception_v3, nasnet_a_large, resnet50

_WORKLOADS = {
    "resnet": resnet50,
    "inception": inception_v3,
    "nasnet": nasnet_a_large,
}

_PRESETS = {
    "tpu-v1": (tpu_v1, tpu_v1_context, TPU_V1),
    "tpu-v2": (tpu_v2, tpu_v2_context, TPU_V2),
    "eyeriss": (eyeriss, eyeriss_context, EYERISS),
}


def _parse_point(text: str) -> DesignPoint:
    try:
        x, n, tx, ty = (int(part) for part in text.split(","))
    except ValueError as error:
        raise NeuroMeterError(
            f"design point must look like '64,2,2,4', got {text!r}"
        ) from error
    return DesignPoint(x, n, tx, ty)


def _context(args: argparse.Namespace) -> ModelContext:
    return ModelContext(tech=node(args.node), freq_ghz=args.freq)


def _add_context_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node", type=float, default=28, help="technology node in nm"
    )
    parser.add_argument(
        "--freq", type=float, default=0.7, help="clock rate in GHz"
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Robust-execution flags shared by the sweep-backed subcommands."""
    parser.add_argument(
        "--backend",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="estimation backend: 'vector' evaluates the sweep through "
        "the NumPy batch kernels, 'scalar' walks the object model per "
        "point, 'auto' (default) vectorizes every shape and falls back "
        "to scalar per point where the model rejects a point",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for point evaluation (default 1)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        dest="chunk_size",
        metavar="K",
        help="points dispatched per worker chunk (default: auto, "
        "about four chunks per worker)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        dest="timeout_s",
        metavar="SECONDS",
        help="per-point wall-clock budget; a hung point is killed "
        "and recorded as a timeout failure",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL checkpoint journal; every finished point is "
        "appended so an interrupted sweep can be resumed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip points already finished in --journal and "
        "rehydrate their results",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="record per-point failures and continue instead of "
        "aborting on the first one",
    )
    _add_cache_arguments(parser)


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """Surrogate-search flags shared by dse and optimize."""
    parser.add_argument(
        "--strategy",
        choices=["exhaustive", "surrogate"],
        default="exhaustive",
        help="candidate selection: 'exhaustive' evaluates every point, "
        "'surrogate' trains a learned cost model on the exact rows and "
        "spends --eval-budget exact evaluations where the model points "
        "(every reported number still comes from the exact model; see "
        "docs/dse_surrogate.md)",
    )
    parser.add_argument(
        "--eval-budget",
        type=int,
        default=None,
        dest="eval_budget",
        metavar="N",
        help="exact-evaluation cap for --strategy surrogate (default: "
        "a quarter of the candidate count)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="search seed (default: $NEUROMETER_SEED, then 0); the "
        "same seed over the same journals reproduces the same "
        "proposals bit-for-bit",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the estimate memoization cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist cached estimates under PATH (keyed by package "
        "version) so later runs start warm",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        dest="cache_stats",
        help="print estimate-cache hit/miss/eviction counters after "
        "the run",
    )


def _apply_cache_flags(args: argparse.Namespace) -> None:
    from repro.cache.store import configure_estimate_cache

    if args.no_cache:
        configure_estimate_cache(enabled=False)
    if args.cache_dir:
        configure_estimate_cache(disk_path=args.cache_dir)


def _cache_stats_table(counters: dict) -> str:
    from repro.cache.store import get_estimate_cache

    cache = get_estimate_cache()
    rows = [
        [name, str(counters.get(name, 0))]
        for name in ("hits", "misses", "evictions", "stores", "disk_hits")
    ]
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    rate = counters.get("hits", 0) / lookups if lookups else 0.0
    rows.append(["hit rate", f"{rate:.1%}"])
    rows.append(["entries resident", str(len(cache))])
    return format_table(["cache counter", "value"], rows)


def _print_cache_stats(args: argparse.Namespace, counters: dict) -> None:
    if getattr(args, "cache_stats", False):
        print(file=sys.stderr)
        print(_cache_stats_table(counters), file=sys.stderr)


def _resolve_cli_seed(explicit) -> int:
    """One seed for every stochastic subsystem: flag, then env, then 0."""
    from repro.dse.seeding import resolve_seed

    return resolve_seed(explicit)


def _engine_options(args: argparse.Namespace) -> dict:
    if args.resume and not args.journal:
        raise NeuroMeterError("--resume requires --journal PATH")
    return {
        "backend": args.backend,
        "jobs": args.jobs,
        "timeout_s": args.timeout_s,
        "chunk_size": args.chunk_size,
        "journal_path": args.journal,
        "resume": args.resume,
    }


def _print_failures(failures, *, label: str = "failed points") -> None:
    if not failures:
        return
    print(f"\n{label} ({len(failures)}):", file=sys.stderr)
    for failure in failures:
        print(f"  {failure.describe()}", file=sys.stderr)


def _print_fallback_totals(totals: dict) -> None:
    """Surface vector-backend fallbacks so 'auto' routing stays visible."""
    if not totals:
        return
    parts = ", ".join(
        f"{reason}: {count}" for reason, count in sorted(totals.items())
    )
    print(f"\nvector-backend fallbacks: {parts}", file=sys.stderr)


def _remote_client(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    return ServeClient(args.remote)


def _cmd_report(args: argparse.Namespace) -> int:
    point = _parse_point(args.point)
    if getattr(args, "remote", None):
        payload = _remote_client(args).estimate(
            [point.x, point.n, point.tx, point.ty],
            node=args.node,
            freq=args.freq,
        )
        metrics = payload["metrics"]
        print(
            f"{point.label()} (remote): "
            f"{metrics['peak_tops']:.1f} peak TOPS, "
            f"{metrics['area_mm2']:.1f} mm^2, "
            f"{metrics['tdp_w']:.1f} W TDP"
        )
        if payload.get("degraded"):
            print("note: served degraded (peak-only)", file=sys.stderr)
        return 0
    chip = point.build()
    ctx = _context(args)
    estimate = chip.estimate(ctx)
    print(
        f"{point.label()} @ {ctx.tech.name} / {ctx.freq_ghz:.2f} GHz: "
        f"{chip.peak_tops(ctx):.1f} peak TOPS, "
        f"{estimate.area_mm2:.1f} mm^2, {chip.tdp_w(ctx):.1f} W TDP"
    )
    print()
    print(breakdown_table(estimate, depth=args.depth))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    names = [args.chip] if args.chip != "all" else list(_PRESETS)
    failures = 0
    for name in names:
        chip_fn, ctx_fn, published = _PRESETS[name]
        chip, ctx = chip_fn(), ctx_fn()
        estimate = chip.estimate(ctx)
        modeled = {"area (mm^2)": estimate.area_mm2}
        reference = {"area (mm^2)": published.area_mm2}
        if published.tdp_w is not None:
            modeled["TDP (W)"] = chip.tdp_w(ctx)
            reference["TDP (W)"] = published.tdp_w
        print(comparison_table(f"== {published.name}", modeled, reference))
        area_error = abs(
            estimate.area_mm2 - published.area_mm2
        ) / published.area_mm2
        if area_error > 0.17:
            failures += 1
        print()
    return 1 if failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    point = _parse_point(args.point)
    chip = point.build()
    ctx = _context(args)
    graph = _WORKLOADS[args.workload]()
    result = Simulator(chip, ctx).run(
        graph, args.batch, per_layer=bool(args.bounds)
    )
    power = runtime_power(chip, ctx, result.activity)
    print(
        f"{graph.name} x{args.batch} on {point.label()} "
        f"@ {ctx.tech.name}/{ctx.freq_ghz:.2f} GHz"
    )
    rows = [
        ["latency", f"{result.latency_ms:.2f} ms"],
        ["throughput", f"{result.throughput_fps:.0f} fps"],
        ["achieved", f"{result.achieved_tops:.2f} TOPS"],
        ["peak", f"{result.peak_tops:.2f} TOPS"],
        ["TU utilization", f"{result.utilization:.1%}"],
        ["runtime power", f"{power.total_w:.1f} W"],
        [
            "energy efficiency",
            f"{result.achieved_tops / power.total_w:.3f} TOPS/W",
        ],
    ]
    print(format_table(["metric", "value"], rows))
    if args.bounds:
        from repro.perf.bound_analysis import bound_report

        print()
        print(bound_report(result, top=args.bounds))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    if args.expanded_space and args.strategy != "surrogate":
        # Only the surrogate search navigates the expanded space; the
        # exhaustive strategy would evaluate its point list instead.
        raise NeuroMeterError(
            "--expanded-space needs --strategy surrogate"
        )
    points = [
        DesignPoint(8, 4, 4, 8),
        DesignPoint(16, 4, 4, 4),
        DesignPoint(32, 4, 2, 2),
        DesignPoint(64, 4, 1, 2),
        DesignPoint(64, 2, 2, 4),
        DesignPoint(128, 4, 1, 1),
        DesignPoint(256, 1, 1, 1),
    ]
    if args.full_grid:
        from repro.dse.space import full_grid

        points = full_grid()
    if args.point:
        points = [_parse_point(text) for text in args.point]
    if getattr(args, "remote", None):
        return _remote_dse(args, points)
    if args.strategy == "surrogate":
        return _dse_surrogate(args, points)
    workloads = [(name, fn()) for name, fn in _WORKLOADS.items()]
    _apply_cache_flags(args)
    report = run_sweep(
        points,
        workloads,
        [args.batch],
        strict=not args.keep_going,
        **_engine_options(args),
    )
    return _print_dse_report(args, report)


def _print_dse_report(args: argparse.Namespace, report) -> int:
    """The dse table on stdout, failures and fallbacks on stderr.

    Local and ``--remote`` runs both print through here, so the two
    outputs cannot drift apart.
    """
    regime = f"bs={args.batch}"
    rows = []
    for record in report.records:
        result = record.result
        if result is None:
            continue
        if any(o.regime == regime for o in result.outcomes):
            runtime = [
                f"{result.mean_achieved_tops(args.batch):.1f}",
                f"{result.mean_utilization(args.batch):.2f}",
                f"{result.mean_energy_efficiency(args.batch):.3f}",
                f"{result.mean_cost_efficiency(args.batch) * 1e6:.2f}",
            ]
        else:
            # Degraded (peak-only) row salvaged by the engine's retry.
            runtime = ["-", "-", "-", "-"]
        rows.append(
            [
                record.point.label(),
                f"{result.area_mm2:.0f}",
                f"{result.tdp_w:.0f}",
                f"{result.peak_tops:.1f}",
            ]
            + runtime
        )
    print(
        format_table(
            [
                "(X,N,Tx,Ty)",
                "mm^2",
                "TDP W",
                "peak",
                "achieved",
                "util",
                "TOPS/W",
                "TOPS/TCO*1e6",
            ],
            rows,
        )
    )
    _print_failures(report.failures)
    _print_failures(
        [r.failure for r in report.degraded if r.failure is not None],
        label="degraded points (peak-only rows)",
    )
    _print_fallback_totals(report.fallback_totals())
    _print_cache_stats(args, report.cache_totals())
    if not rows:
        print("error: every design point failed", file=sys.stderr)
        return 2
    return 0


def _dse_surrogate(args: argparse.Namespace, points) -> int:
    """Budgeted surrogate search printing the exact-verified frontier."""
    from repro.dse.space import SpaceAxes
    from repro.dse.surrogate.search import surrogate_search

    _apply_cache_flags(args)
    options = _engine_options(args)
    options.pop("chunk_size", None)  # the search batches its own rounds
    workloads = [(name, fn()) for name, fn in _WORKLOADS.items()]
    if args.expanded_space:
        axes = SpaceAxes.expanded()
        budget = args.eval_budget if args.eval_budget is not None else 64
        mode: dict = {"axes": axes}
        print(
            f"searching the expanded space ({axes.size:,} points) "
            f"with {budget} exact evaluations",
            file=sys.stderr,
        )
    else:
        budget = (
            args.eval_budget
            if args.eval_budget is not None
            else max(8, len(points) // 4)
        )
        mode = {"candidates": points}
    result = surrogate_search(
        None,  # multi-objective: report the verified Pareto frontier
        eval_budget=budget,
        seed=args.seed,
        workloads=workloads,
        batch=args.batch,
        **mode,
        **options,
    )
    rows = [
        [
            row.point.label(),
            f"{row.area_mm2:.0f}",
            f"{row.tdp_w:.0f}",
            f"{row.peak_tops:.1f}",
            f"{row.peak_tops_per_watt:.3f}",
            f"{row.peak_tops_per_tco * 1e6:.3f}",
        ]
        for row in result.frontier
    ]
    print(
        format_table(
            [
                "(X,N,Tx,Ty)",
                "mm^2",
                "TDP W",
                "peak",
                "TOPS/W",
                "TOPS/TCO*1e6",
            ],
            rows,
        )
    )
    print(f"\n{result.summary()}", file=sys.stderr)
    _print_failures(result.failures)
    _print_fallback_totals(result.fallback_totals)
    if result.cancelled:
        return 3
    return 0 if rows else 2


def _remote_dse(args: argparse.Namespace, points) -> int:
    """Run the dse table through a ``neurometer serve`` daemon."""
    from repro.dse.engine import PointFailure, PointRecord, SweepReport
    from repro.dse.journal import result_from_metrics

    payload = _remote_client(args).sweep(
        [[p.x, p.n, p.tx, p.ty] for p in points],
        workloads=list(_WORKLOADS),
        batch=args.batch,
    )
    records = []
    for raw in payload["records"]:
        point = DesignPoint(*raw["point"])
        metrics = raw.get("metrics")
        failure = raw.get("failure")
        records.append(PointRecord(
            point=point,
            status=raw["status"],
            result=(
                result_from_metrics(point, metrics)
                if metrics is not None else None
            ),
            failure=(
                PointFailure.from_dict(point, failure)
                if failure is not None else None
            ),
            fallback=raw.get("fallback"),
        ))
    return _print_dse_report(args, SweepReport(records=tuple(records)))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the long-running estimation daemon (see docs/serving.md)."""
    from repro.serve.app import ServeConfig
    from repro.serve.lifecycle import run_server

    _apply_cache_flags(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        jobs=args.jobs,
        timeout_s=args.timeout_s,
        deadline_s=args.deadline_s,
        max_inflight=args.max_inflight,
        retry_attempts=args.retry_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        journal_dir=args.journal_dir,
        request_log=args.request_log,
        drain_grace_s=args.drain_grace_s,
        seed=_resolve_cli_seed(args.seed),
        eval_cost_floor_s=args.eval_cost_floor_s,
        reload_config=args.reload_config,
    )
    return run_server(config)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """Demonstrate and report the estimate cache on a small point set.

    Models each point twice — a cold pass that fills the cache and a warm
    pass served from it — then prints the counters and the measured warm
    speedup.  ``--no-cache`` turns the run into a plain A/B baseline
    (every lookup misses nothing because none happen).
    """
    import time

    from repro.cache.store import get_estimate_cache

    _apply_cache_flags(args)
    points = (
        [_parse_point(text) for text in args.point]
        if args.point
        else [
            DesignPoint(8, 4, 4, 8),
            DesignPoint(32, 4, 2, 2),
            DesignPoint(64, 2, 2, 4),
            DesignPoint(128, 4, 1, 1),
        ]
    )
    ctx = _context(args)
    cache = get_estimate_cache()
    cache.clear()

    def _pass() -> list[tuple]:
        rows = []
        for point in points:
            chip = point.build()
            estimate = chip.estimate(ctx)
            rows.append(
                (estimate.area_mm2, chip.tdp_w(ctx), chip.peak_tops(ctx))
            )
        return rows

    start = time.perf_counter()
    cold = _pass()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = _pass()
    warm_s = time.perf_counter() - start

    if cold != warm:
        print(
            "error: cached results diverged from the first pass",
            file=sys.stderr,
        )
        return 2
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"{len(points)} points: cold pass {cold_s * 1e3:.1f} ms, "
        f"warm pass {warm_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    print()
    print(_cache_stats_table(cache.stats.snapshot()))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Run the model-integrity self-check suite; exit 2 on any failure.

    With ``--inject-fault`` a seeded :class:`~repro.integrity.faults.FaultPlan`
    is armed for the whole run, proving end-to-end that an injected fault
    is caught by the integrity screen and turns the clean exit code into
    a failure instead of silently skewing the report.
    """
    import json

    from repro.integrity.doctor import run_doctor
    from repro.integrity.faults import (
        FaultKind,
        FaultPlan,
        FaultSpec,
        fault_injection,
    )

    _apply_cache_flags(args)

    def _run():
        return run_doctor(
            preset_names=args.preset or None,
            checks=args.check or None,
        )

    if args.inject_fault:
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    target=args.fault_target,
                    kind=FaultKind(args.inject_fault),
                    field=args.fault_field,
                    max_hits=0,  # every matching call, all checks
                ),
            ),
            seed=_resolve_cli_seed(args.seed),
        )
        with fault_injection(plan):
            report = _run()
        if report.passed:
            print(
                "error: injected fault escaped every doctor check",
                file=sys.stderr,
            )
            return 2
    else:
        report = _run()

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 2


def _changed_python_files(root: "Path", base: str) -> "list[Path] | None":
    """Python files changed vs ``base`` plus untracked ones, or ``None``
    when ``root`` is not inside a usable git checkout."""
    import subprocess

    def _git(*argv: str) -> "list[str] | None":
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), *argv],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return [line for line in proc.stdout.splitlines() if line.strip()]

    changed = _git("diff", "--name-only", "--diff-filter=d", base, "--")
    if changed is None:
        return None
    untracked = _git("ls-files", "--others", "--exclude-standard") or []
    return [
        Path(root) / name
        for name in dict.fromkeys(changed + untracked)
        if name.endswith(".py")
    ]


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 2 when new findings appear.

    Pre-existing findings live in the committed baseline file and do not
    fail the run; ``--update-baseline`` re-records them (preserving the
    per-entry justifications) after intentional changes.

    ``--changed-only`` narrows the run to files touched since
    ``--diff-base`` (plus untracked files), keeping pre-commit runs
    fast; the baseline semantics are unchanged.
    """
    from repro.lint import run_lint

    root = Path(args.root) if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths]
    if args.changed_only:
        changed = _changed_python_files(root, args.diff_base)
        if changed is None:
            print(
                f"neurometer lint: --changed-only needs a git checkout at "
                f"{root} and a valid --diff-base ({args.diff_base!r})",
                file=sys.stderr,
            )
            return 1
        requested = [p.resolve() for p in paths]
        paths = [
            f for f in changed
            if f.exists() and any(
                _path_is_within(f.resolve(), req) for req in requested
            )
        ]
        if not paths:
            print("0 file(s) checked: no changed Python files under the "
                  "given paths")
            return 0
    report = run_lint(
        paths,
        root=args.root,
        rules=args.rule or None,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
    )
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text())
    return report.exit_code


def _path_is_within(path: "Path", ancestor: "Path") -> bool:
    try:
        path.relative_to(ancestor)
        return True
    except ValueError:
        return False


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.timing.report import timing_report

    point = _parse_point(args.point)
    chip = point.build()
    ctx = _context(args)
    print(timing_report(chip.estimate(ctx), ctx.freq_ghz, top=args.top))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.dse.optimizer import Constraints, Objective, optimize_design
    from repro.dse.space import design_space

    objective = Objective(args.objective)
    constraints = Constraints(
        max_area_mm2=args.max_area,
        max_tdp_w=args.max_tdp,
        min_peak_tops=args.min_tops,
    )
    if args.point:
        points = [_parse_point(text) for text in args.point]
    else:
        points = design_space(check_budgets=False)
    workloads = []
    if objective.needs_workloads:
        workloads = [(name, fn()) for name, fn in _WORKLOADS.items()]
    _apply_cache_flags(args)
    outcome = optimize_design(
        points,
        objective,
        constraints,
        workloads=workloads,
        batch=args.batch,
        strict=not args.keep_going,
        strategy=args.strategy,
        eval_budget=args.eval_budget,
        seed=args.seed,
        **_engine_options(args),
    )
    best = outcome.best
    print(
        f"best for {objective.value}: {best.point.label()} — "
        f"{best.peak_tops:.1f} peak TOPS, {best.area_mm2:.0f} mm^2, "
        f"{best.tdp_w:.0f} W"
    )
    print(f"feasible candidates ranked: {len(outcome.ranking)}; "
          f"infeasible: {len(outcome.infeasible)}")
    if outcome.exact_evaluations is not None:
        print(
            f"strategy: {outcome.strategy} "
            f"({outcome.exact_evaluations} exact evaluations "
            f"of {len(points)} candidates)"
        )
    for result in outcome.ranking[1:4]:
        print(f"  runner-up: {result.point.label()}")
    _print_failures(outcome.failures)
    from repro.cache.store import get_estimate_cache

    _print_cache_stats(args, get_estimate_cache().stats.snapshot())
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.arch.floorplan import floorplan_chip

    point = _parse_point(args.point)
    chip = point.build()
    ctx = _context(args)
    plan = floorplan_chip(chip.estimate(ctx))
    print(
        f"{point.label()} outline {plan.width_mm:.1f} x "
        f"{plan.height_mm:.1f} mm, packing "
        f"{plan.packing_efficiency:.0%}"
    )
    print(plan.render(columns=args.columns))
    return 0


def _cmd_edge(args: argparse.Namespace) -> int:
    from repro.dse.edge import edge_sweep
    from repro.workloads.mobilenet import mobilenet_v2

    results = edge_sweep(mobilenet_v2())
    rows = [
        [
            result.label,
            f"{result.area_mm2:.1f}",
            f"{result.tdp_w:.2f}",
            f"{result.fps:.0f}",
            f"{result.fps_per_watt:.0f}",
        ]
        for result in sorted(results, key=lambda r: -r.fps_per_watt)[
            : args.top
        ]
    ]
    print(
        format_table(
            ["(X,N,Tx,Ty)", "mm^2", "TDP W", "fps", "fps/W"], rows
        )
    )
    return 0


def _cmd_sparsity(args: argparse.Namespace) -> int:
    sparsities = [float(s) for s in args.sparsity]
    sweep = sparsity_sweep(sparsities)
    rows = [
        [f"{s:.2f}"]
        + [f"{sweep[arch][i].gain:.2f}" for arch in STUDY_ARCHITECTURES]
        for i, s in enumerate(sparsities)
    ]
    print(
        format_table(["sparsity"] + list(STUDY_ARCHITECTURES), rows)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="neurometer",
        description="NeuroMeter reproduction: power/area/timing modeling "
        "for ML accelerators",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="model one datacenter design point"
    )
    report.add_argument(
        "--point", default="64,2,2,4", help="X,N,Tx,Ty tuple"
    )
    report.add_argument(
        "--depth", type=int, default=2, help="breakdown depth"
    )
    report.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="send the request to a running `neurometer serve` daemon "
        "instead of modeling locally",
    )
    _add_context_arguments(report)
    report.set_defaults(handler=_cmd_report)

    validate = commands.add_parser(
        "validate", help="compare the modeled chips against published data"
    )
    validate.add_argument(
        "--chip",
        choices=["all"] + sorted(_PRESETS),
        default="all",
    )
    validate.set_defaults(handler=_cmd_validate)

    simulate = commands.add_parser(
        "simulate", help="run a workload on a design point"
    )
    simulate.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="resnet"
    )
    simulate.add_argument("--batch", type=int, default=1)
    simulate.add_argument("--point", default="64,2,2,4")
    simulate.add_argument(
        "--bounds",
        type=int,
        default=0,
        metavar="N",
        help="also print the bottleneck report with the N slowest layers",
    )
    _add_context_arguments(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    dse = commands.add_parser(
        "dse", help="sweep the Sec. III design points"
    )
    dse.add_argument("--batch", type=int, default=1)
    dse.add_argument(
        "--point",
        action="append",
        help="explicit X,N,Tx,Ty tuples (repeatable)",
    )
    dse.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="run the sweep on a `neurometer serve` daemon instead of "
        "locally (engine flags are the daemon's, not this process's)",
    )
    dse.add_argument(
        "--full-grid",
        action="store_true",
        dest="full_grid",
        help="sweep the full unpruned 210-point Table I grid instead "
        "of the Sec. III key points",
    )
    dse.add_argument(
        "--expanded-space",
        action="store_true",
        dest="expanded_space",
        help="with --strategy surrogate: navigate the ~1M-point "
        "expanded design space instead of an enumerated grid "
        "(mutation/crossover over the axes; see docs/dse_surrogate.md)",
    )
    _add_engine_arguments(dse)
    _add_search_arguments(dse)
    dse.set_defaults(handler=_cmd_dse)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived estimation daemon "
        "(JSON-over-HTTP; SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8757)
    serve.add_argument(
        "--backend",
        choices=["scalar", "auto", "vector"],
        default="scalar",
        help="estimation backend for served sweeps; per-point vector "
        "fallback totals appear in /status as vector_fallbacks",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="persistent pool workers shared by every request",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        dest="timeout_s",
        metavar="SECONDS",
        help="per-point wall-clock budget inherited by every request",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=60.0,
        dest="deadline_s",
        metavar="SECONDS",
        help="default per-request deadline (clients may override with "
        "the X-Deadline-S header)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        dest="max_inflight",
        metavar="N",
        help="admission bound; excess requests are shed with 503 + "
        "Retry-After",
    )
    serve.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        dest="retry_attempts",
        metavar="N",
        help="bounded retries (with exponential backoff + jitter) when "
        "a pool worker crashes mid-request",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        dest="breaker_threshold",
        metavar="N",
        help="consecutive integrity failures that trip a model family "
        "to degraded peak-only service",
    )
    serve.add_argument(
        "--breaker-reset-s",
        type=float,
        default=30.0,
        dest="breaker_reset_s",
        metavar="SECONDS",
        help="open-breaker window before a half-open trial",
    )
    serve.add_argument(
        "--journal-dir",
        default=None,
        dest="journal_dir",
        metavar="DIR",
        help="directory for per-sweep checkpoint journals; a drained "
        "sweep resumes from here",
    )
    serve.add_argument(
        "--request-log",
        default=None,
        dest="request_log",
        metavar="PATH",
        help="JSONL journal of every resolved request",
    )
    serve.add_argument(
        "--drain-grace-s",
        type=float,
        default=30.0,
        dest="drain_grace_s",
        metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="backoff-jitter seed (default: $NEUROMETER_SEED, then 0)",
    )
    serve.add_argument(
        "--eval-cost-floor-s",
        type=float,
        default=0.01,
        dest="eval_cost_floor_s",
        metavar="SECONDS",
        help="assumed cost of one exact evaluation when admission-"
        "checking a budgeted /optimize request against its deadline "
        "(see docs/dse_surrogate.md)",
    )
    serve.add_argument(
        "--reload-config",
        default=None,
        dest="reload_config",
        metavar="PATH",
        help="JSON file re-read on SIGHUP to hot-swap the live-safe "
        "knobs (deadlines, admission bound, breaker windows) without "
        "dropping the warm cache or in-flight requests",
    )
    _add_cache_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    sparsity = commands.add_parser(
        "sparsity", help="the Fig. 11 sparse-efficiency table"
    )
    sparsity.add_argument(
        "--sparsity",
        nargs="+",
        default=["0.3", "0.5", "0.7", "0.9", "0.95"],
    )
    sparsity.set_defaults(handler=_cmd_sparsity)

    cache_stats = commands.add_parser(
        "cache-stats",
        help="model points cold vs. warm and report estimate-cache "
        "hit/miss/eviction counters",
    )
    cache_stats.add_argument(
        "--point",
        action="append",
        help="explicit X,N,Tx,Ty tuples (repeatable)",
    )
    _add_context_arguments(cache_stats)
    _add_cache_arguments(cache_stats)
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    doctor = commands.add_parser(
        "doctor",
        help="run the model-integrity self-check suite "
        "(exit 2 on any failure)",
    )
    doctor.add_argument(
        "--preset",
        action="append",
        choices=["tpu-v1", "tpu-v2", "eyeriss", "datacenter"],
        help="presets to sweep (repeatable; default: all)",
    )
    doctor.add_argument(
        "--check",
        action="append",
        help="run only the named checks (repeatable)",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit the structured report as JSON",
    )
    doctor.add_argument(
        "--inject-fault",
        choices=["nan", "inf", "sign-flip"],
        default=None,
        help="arm a fault plan for the run; a healthy tree must then "
        "exit 2 (chaos self-test)",
    )
    doctor.add_argument(
        "--fault-target",
        default="",
        help="component substring the injected fault targets "
        "(default: every model call)",
    )
    doctor.add_argument(
        "--fault-field",
        default="dynamic_w",
        choices=["area_mm2", "dynamic_w", "leakage_w", "cycle_time_ns"],
        help="estimate field the injected fault corrupts",
    )
    doctor.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fault-plan seed (default: $NEUROMETER_SEED, then 0)",
    )
    _add_cache_arguments(doctor)
    doctor.set_defaults(handler=_cmd_doctor)

    lint = commands.add_parser(
        "lint",
        help="static dimensional-consistency and convention checks "
        "(exit 2 on new findings)",
    )
    lint.add_argument(
        "paths",
        nargs="+",
        help="files or directories to lint (e.g. src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default text; sarif for CI annotation)",
    )
    lint.add_argument(
        "--changed-only",
        action="store_true",
        dest="changed_only",
        help="lint only files changed vs --diff-base (git diff + "
        "untracked), intersected with the given paths",
    )
    lint.add_argument(
        "--diff-base",
        default="HEAD",
        metavar="REF",
        help="git ref --changed-only diffs against (default HEAD)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="NMXXX",
        help="run only the named rules (repeatable)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of accepted findings "
        "(default: no baseline; all findings are new)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        dest="update_baseline",
        help="rewrite --baseline with the current findings, keeping "
        "existing justifications",
    )
    lint.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="directory paths are reported relative to (default: cwd)",
    )
    lint.set_defaults(handler=_cmd_lint)

    timing = commands.add_parser(
        "timing", help="critical-path report for a design point"
    )
    timing.add_argument("--point", default="64,2,2,4")
    timing.add_argument("--top", type=int, default=10)
    _add_context_arguments(timing)
    timing.set_defaults(handler=_cmd_timing)

    optimize = commands.add_parser(
        "optimize",
        help="pick the best design for an objective under constraints",
    )
    from repro.dse.optimizer import Objective

    optimize.add_argument(
        "--objective",
        choices=[objective.value for objective in Objective],
        default="tops-per-tco",
    )
    optimize.add_argument("--max-area", type=float, default=500.0)
    optimize.add_argument("--max-tdp", type=float, default=300.0)
    optimize.add_argument("--min-tops", type=float, default=None)
    optimize.add_argument("--batch", type=int, default=1)
    optimize.add_argument("--point", action="append")
    _add_engine_arguments(optimize)
    _add_search_arguments(optimize)
    optimize.set_defaults(handler=_cmd_optimize)

    edge = commands.add_parser(
        "edge", help="sweep the edge (MobileNet, 4 W) design space"
    )
    edge.add_argument("--top", type=int, default=8)
    edge.set_defaults(handler=_cmd_edge)

    floorplan = commands.add_parser(
        "floorplan", help="ASCII floorplan of a design point"
    )
    floorplan.add_argument("--point", default="64,2,2,4")
    floorplan.add_argument("--columns", type=int, default=48)
    _add_context_arguments(floorplan)
    floorplan.set_defaults(handler=_cmd_floorplan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NeuroMeterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A journaled sweep interrupted here is resumable with --resume.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
