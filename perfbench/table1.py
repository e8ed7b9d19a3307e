"""``table1_dse``: the paper's Table I sweep, in process, closed loop.

Each cycle runs three ops over the 210-point grid (in the seeded order):
a cold sweep with the three workloads at the Fig. 10 batch specs and a
journal, a burst of warm re-runs of the same recipe, and a burst of cold
peak-only sweeps.  The scalar models, the pool, the HTTP layer and the surrogate stay idle.
"""

from __future__ import annotations

import os
import time

from perfbench import checks, gen, inproc
from perfbench.harness import Run

NAME = "table1_dse"
IN_PROCESS = True
REFS = "table1.json"

#: Warm and peak-only sweeps per burst, one burst of each per cycle.
#: These sweeps last 45-95 ms, shorter than the host's fast and slow
#: phases (0.3-4 s), so single-sweep times are bimodal and their median
#: jumps between the modes; a burst's time per sweep spans several
#: phases and moves smoothly with the mix.
BURST = 8


def setup() -> dict:
    start = time.perf_counter()
    from repro.cache.store import get_estimate_cache
    from repro.dse.engine import run_sweep
    from repro.dse.space import full_grid

    import_s = time.perf_counter() - start
    state = {
        "run_sweep": run_sweep,
        "cache": get_estimate_cache,
        "grid": full_grid(),
        "workloads": inproc.workloads(),
        "refs": checks.load(REFS),
        "import_s": import_s,
    }
    start = time.perf_counter()
    # First use of the batch path imports its modules and faults in
    # NumPy; pay that here, not in the first timed op.
    run_sweep(state["grid"], backend="auto")
    run_sweep(state["grid"][:4], state["workloads"], [1], backend="auto")
    inproc.reset_caches()
    state["warmup_s"] = time.perf_counter() - start
    return state


def _check(report, expected: dict, label: str):
    if len(report.records) != len(expected):
        return (f"{label}: {len(report.records)} records for "
                f"{len(expected)} points")
    rows = {}
    for record in report.records:
        key = checks.point_key(record.point)
        if record.status != "ok" or record.fallback is not None:
            return (f"{label} ({key}): status {record.status}, "
                    f"fallback {record.fallback}")
        rows[key] = record.metrics
    return checks.check_rows(expected, rows, label)


def run(state: dict, run: Run, seed: int, tmpdir: str) -> None:
    run_sweep = state["run_sweep"]
    cache = state["cache"]
    grid = state["grid"]
    points = [grid[i] for i in gen.grid_order(seed, len(grid))]
    workloads = state["workloads"]
    refs = state["refs"]
    deadline = time.perf_counter() + run.seconds
    cycle = 0
    while time.perf_counter() < deadline:
        traced = run.traced_op(cycle)
        op_ids = []
        stats_before = cache().stats.snapshot()

        journal = os.path.join(tmpdir, f"cold-{cycle}.jsonl")
        inproc.reset_caches()
        with run.op("cold", traced, "engine.run_sweep") as box:
            box["report"] = run_sweep(
                points, workloads, inproc.FIG10_BATCHES, backend="auto",
                journal_path=journal,
            )
        op_ids.append(box["op_id"])
        if box["ok"]:
            run.check(_check(box["report"], refs["full"], "cold sweep"))
        if os.path.exists(journal):
            os.remove(journal)

        with run.op("warm", traced, "engine.run_sweep", per=BURST) as box:
            box["reports"] = [
                run_sweep(points, workloads, inproc.FIG10_BATCHES,
                          backend="auto")
                for _ in range(BURST)
            ]
        op_ids.append(box["op_id"])
        if box["ok"]:
            run.check(checks.first_problem(
                _check(report, refs["full"], "warm sweep")
                for report in box["reports"]
            ))

        with run.op("peak", traced, "engine.run_sweep", per=BURST) as box:
            box["reports"] = []
            for _ in range(BURST):
                inproc.reset_caches()
                box["reports"].append(run_sweep(points, backend="auto"))
        op_ids.append(box["op_id"])
        if box["ok"]:
            run.check(checks.first_problem(
                _check(report, refs["peak"], "peak sweep")
                for report in box["reports"]
            ))

        if traced:
            run.layer_rows.append(run.layer_row(
                op_ids, cache().stats.delta_since(stats_before)
            ))
        cycle += 1
    _finish(run, len(points))


def _finish(run: Run, size: int) -> None:
    run.e2e["peak_rss_mb"] = inproc.own_peak_rss_mb()
    run.main_kind = "cold"
    kinds = ("cold", "warm", "peak")
    if not all(run.all_samples(kind) for kind in kinds):
        run.fail("no complete cycle in the time window")
        return
    cold, warm, peak = (run.p50(kind) for kind in kinds)
    n_cold, n_warm, n_peak = (len(run.all_samples(kind)) for kind in kinds)
    run.e2e.update(cold_op_ms=1e3 * cold, warm_op_ms=1e3 * warm,
                   batch_points_per_s=size / peak)
    run.counts.update(cold_op_ms=n_cold, warm_op_ms=n_warm,
                      batch_points_per_s=n_peak)
    run.figures.update({
        "cold_points_per_s": (size / cold, "points/s", n_cold),
        "warm_points_per_s": (size / warm, "points/s", n_warm),
        "peak_points_per_s": (size / peak, "points/s", n_peak),
    })
    run.report_timing("cold journaled sweep", "cold", 1e3, "ms")
    run.report_timing(f"warm sweep (per sweep, bursts of {BURST})", "warm",
                      1e3, "ms")
    run.report_timing(f"cold peak-only sweep (per sweep, bursts of {BURST})",
                      "peak", 1e3, "ms")
