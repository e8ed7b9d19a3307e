"""Rewrite the reference outputs in ``perfbench/refs`` from this program.

Run as ``python3 perfbench/run.py --regen-refs``.  Only a change that is
meant to alter the model's numbers regenerates them; every row is
computed on both the scalar and the vector backend, which must agree
bit for bit before anything is written.
"""

from __future__ import annotations

import sys

from perfbench import checks, gen, inproc, surrogate


def _rows(report) -> dict:
    rows = {}
    for record in report.records:
        if record.status != "ok" or record.fallback is not None:
            raise RuntimeError(f"{record.point}: {record.status}, "
                               f"fallback {record.fallback}")
        rows[checks.point_key(record.point)] = record.metrics
    return rows


def _both_backends(points, *recipe) -> dict:
    from repro.dse.engine import run_sweep

    vector = _rows(run_sweep(points, *recipe, backend="vector"))
    scalar = _rows(run_sweep(points, *recipe, backend="scalar"))
    problem = checks.check_rows(scalar, vector, "vector vs scalar")
    if problem:
        raise RuntimeError(problem)
    return vector


def main() -> int:
    from repro.dse.journal import summarize_result
    from repro.dse.optimizer import Constraints, Objective, optimize_design
    from repro.dse.space import SpaceAxes, design_space, full_grid
    from repro.dse.surrogate import surrogate_search

    grid = full_grid()
    workloads = inproc.workloads()
    print("table1: full recipe and peak-only rows", file=sys.stderr)
    checks.save("table1.json", {
        "full": _both_backends(grid, workloads, inproc.FIG10_BATCHES),
        "peak": _both_backends(grid),
    })
    print("serve: batch-1 rows and the default /optimize", file=sys.stderr)
    outcome = optimize_design(
        design_space(check_budgets=False), Objective("tops-per-tco"),
        Constraints(), strict=False,
    )
    best = outcome.best
    checks.save("serve.json", {
        "batch1": _both_backends(grid, workloads, [1]),
        "optimize": {
            "best": {"point": [best.point.x, best.point.n, best.point.tx,
                               best.point.ty],
                     "area_mm2": best.area_mm2, "tdp_w": best.tdp_w,
                     "peak_tops": best.peak_tops},
            "ranking": [[r.point.x, r.point.n, r.point.tx, r.point.ty]
                        for r in outcome.ranking],
        },
    })
    frontiers = {}
    for seed in gen.SEARCH_SEED_POOL:
        print(f"surrogate: search seed {seed}", file=sys.stderr)
        inproc.reset_caches()
        result = surrogate_search(
            None, axes=SpaceAxes.expanded(),
            eval_budget=surrogate.EVAL_BUDGET, workloads=workloads,
            batch=1, seed=seed,
        )
        frontiers[str(seed)] = surrogate.frontier_rows(
            result, summarize_result
        )
    checks.save("surrogate.json", frontiers)
    return 0
