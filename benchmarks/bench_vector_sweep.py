"""Vectorized vs. scalar sweep — the batch-backend acceptance benchmark.

Runs the full (unpruned) Table I grid through three sweep configurations:

* **scalar, forked** — ``backend="scalar"``, two workers, ``chunk_size=1``
  (the closest stand-in for the historical process-per-point engine);
* **scalar, inline** — ``backend="scalar"`` in this process, cold then
  warm (memoization cache filled);
* **vector** — ``backend="vector"`` through the NumPy batch kernels,
  cold (substrate rebuilt) then warm.

and asserts the properties the batch backend promises:

* **Exact equivalence** — the vector sweep's area/TDP/peak-TOPS rows
  equal the scalar rows bit-for-bit on every grid point.
* **Speedup** — the cold vector sweep beats the forked scalar baseline by
  >= 5x (>= 3x vs. the cold inline scalar pass in
  ``NEUROMETER_BENCH_SMOKE=1`` mode, where the grid is reduced and fork
  jitter would dominate), and the *warm* vector sweep beats the warm
  scalar sweep by >= 2x (vector rows come back from the estimate cache;
  before PR 7 they bypassed it and warm sweeps tied scalar).
* **Coverage** — the Table I grid (datacenter *and* bf16 training
  presets) vectorizes with zero fallbacks; a
  second pass runs the full workload simulation (mapping, roofline,
  cycle sim) through the batched perf layer with the same bit-exactness.

Wall-times, points/sec, speedups, and the per-reason fallback counts are
written to ``BENCH_sweep.json`` via :mod:`benchmarks.emit` for CI and the
performance docs.
"""

import os
import time

from benchmarks.conftest import run_once
from benchmarks.emit import emit_bench, round_floats
from repro.batch import substrate as substrate_mod
from repro.batch.estimator import BatchEstimator
from repro.cache.store import get_estimate_cache
from repro.config.presets import datacenter_context, datacenter_training_point
from repro.dse.engine import run_sweep
from repro.dse.space import TU_LENGTHS, TUS_PER_CORE, DesignPoint, _grids
from repro.report.tables import format_table
from repro.workloads import resnet50

_SMOKE = os.environ.get("NEUROMETER_BENCH_SMOKE") == "1"

#: The full Table I grid (every (X, N, Tx, Ty) combination, unpruned).
POINTS = [
    DesignPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]
if _SMOKE:
    POINTS = POINTS[::4]


class TrainingPoint(DesignPoint):
    """A grid point building the bf16 training preset."""

    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


#: The same grid through the training preset (bf16/fp16 cells).
TRAINING_POINTS = [
    TrainingPoint(p.x, p.n, p.tx, p.ty) for p in POINTS
]

#: Acceptance bar: cold vector vs. the process-per-point scalar baseline
#: (full grid), or vs. the cold inline scalar pass (smoke grid).
_SPEEDUP_BAR = 3.0 if _SMOKE else 5.0

#: Warm-sweep bar: cached vector rows vs. the warm scalar pass.
_WARM_BAR = 2.0


def _cold() -> None:
    """Drop every warm state the two backends could reuse."""
    get_estimate_cache().clear()
    substrate_mod._SUBSTRATES.clear()


def _rows(report) -> list:
    return [
        (r.point, r.result.area_mm2, r.result.tdp_w, r.result.peak_tops)
        for r in report.records
    ]


def test_vector_sweep_equivalence_and_speedup(benchmark, emit):
    ctx = datacenter_context()

    _cold()
    start = time.perf_counter()
    forked = run_sweep(
        POINTS, ctx=ctx, backend="scalar", jobs=2, chunk_size=1
    )
    forked_s = time.perf_counter() - start

    _cold()
    start = time.perf_counter()
    scalar_cold = run_sweep(POINTS, ctx=ctx, backend="scalar")
    scalar_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar_warm = run_sweep(POINTS, ctx=ctx, backend="scalar")
    scalar_warm_s = time.perf_counter() - start

    _cold()
    start = time.perf_counter()
    vector_cold = run_once(
        benchmark, lambda: run_sweep(POINTS, ctx=ctx, backend="vector")
    )
    vector_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    vector_warm = run_sweep(POINTS, ctx=ctx, backend="vector")
    vector_warm_s = time.perf_counter() - start

    # Exact numeric equivalence across every configuration.
    reference = _rows(scalar_cold)
    assert _rows(forked) == reference, "forked scalar sweep diverged"
    assert _rows(scalar_warm) == reference, "warm scalar sweep diverged"
    assert _rows(vector_cold) == reference, (
        "vector sweep diverged from the scalar baseline"
    )
    assert _rows(vector_warm) == reference, "warm vector sweep diverged"
    assert all(r.status == "ok" for r in vector_cold.records)

    baseline_s = scalar_cold_s if _SMOKE else forked_s
    speedup = baseline_s / vector_cold_s if vector_cold_s > 0 else (
        float("inf")
    )
    points_per_s = {
        "scalar_forked": len(POINTS) / forked_s,
        "scalar_cold": len(POINTS) / scalar_cold_s,
        "scalar_warm": len(POINTS) / scalar_warm_s,
        "vector_cold": len(POINTS) / vector_cold_s,
        "vector_warm": len(POINTS) / vector_warm_s,
    }
    emit(
        format_table(
            ["pass", "wall s", "points/s"],
            [
                [name, f"{seconds:.3f}", f"{rate:.0f}"]
                for name, seconds, rate in [
                    ("scalar forked (chunk=1)", forked_s,
                     points_per_s["scalar_forked"]),
                    ("scalar inline cold", scalar_cold_s,
                     points_per_s["scalar_cold"]),
                    ("scalar inline warm", scalar_warm_s,
                     points_per_s["scalar_warm"]),
                    ("vector cold", vector_cold_s,
                     points_per_s["vector_cold"]),
                    ("vector warm", vector_warm_s,
                     points_per_s["vector_warm"]),
                ]
            ],
        )
        + f"\n\nvector cold speedup vs. baseline: {speedup:.1f}x "
        f"(bar {_SPEEDUP_BAR:g}x)"
    )

    emit_bench(
        "vector_sweep",
        round_floats(
            {
                "grid_points": len(POINTS),
                "smoke": _SMOKE,
                "wall_s": {
                    "scalar_forked_cold": forked_s,
                    "scalar_inline_cold": scalar_cold_s,
                    "scalar_inline_warm": scalar_warm_s,
                    "vector_cold": vector_cold_s,
                    "vector_warm": vector_warm_s,
                },
                "points_per_s": points_per_s,
                "speedup": {
                    "vector_cold_vs_baseline": speedup,
                    "baseline": (
                        "scalar_inline_cold" if _SMOKE
                        else "scalar_forked_cold"
                    ),
                    "vector_cold_vs_scalar_forked": (
                        forked_s / vector_cold_s
                    ),
                    "vector_cold_vs_scalar_inline_cold": (
                        scalar_cold_s / vector_cold_s
                    ),
                    "vector_warm_vs_scalar_inline_warm": (
                        scalar_warm_s / vector_warm_s
                    ),
                },
                "bar": _SPEEDUP_BAR,
            }
        ),
    )

    assert speedup >= _SPEEDUP_BAR, (
        f"cold vector sweep speedup {speedup:.2f}x is below the "
        f"{_SPEEDUP_BAR:g}x acceptance bar"
    )
    warm_ratio = scalar_warm_s / vector_warm_s if vector_warm_s > 0 else (
        float("inf")
    )
    assert warm_ratio >= _WARM_BAR, (
        f"warm vector sweep is only {warm_ratio:.2f}x the warm scalar "
        f"pass (bar {_WARM_BAR:g}x); cached batch rows are not being "
        "served from the estimate cache"
    )


def _workload_rows(report) -> list:
    return [
        (
            r.point.x, r.point.n, r.point.tx, r.point.ty,
            r.metrics["area_mm2"], r.metrics["tdp_w"],
            r.metrics["peak_tops"], r.metrics["outcomes"],
        )
        for r in report.records
    ]


def test_vector_workload_sweep_and_coverage(benchmark, emit):
    """The full DSE — performance simulation included — in array ops.

    Runs the Table I grid with a ResNet workload through the forked
    scalar baseline, the inline scalar path, and the batched perf layer,
    asserting bit-exact equivalence; then sweeps the datacenter *and*
    training grids through the vector path and asserts zero fallbacks,
    emitting the per-reason counts.
    """
    ctx = datacenter_context()
    workloads = [("ResNet", resnet50())]
    batches = [4]

    _cold()
    start = time.perf_counter()
    forked = run_sweep(
        POINTS, workloads, batches, ctx,
        backend="scalar", jobs=2, chunk_size=1,
    )
    forked_s = time.perf_counter() - start

    _cold()
    start = time.perf_counter()
    scalar = run_sweep(POINTS, workloads, batches, ctx, backend="scalar")
    scalar_s = time.perf_counter() - start

    _cold()
    start = time.perf_counter()
    vector_cold = run_once(
        benchmark,
        lambda: run_sweep(
            POINTS, workloads, batches, ctx, backend="vector"
        ),
    )
    vector_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    vector_warm = run_sweep(
        POINTS, workloads, batches, ctx, backend="vector"
    )
    vector_warm_s = time.perf_counter() - start

    reference = _workload_rows(scalar)
    assert _workload_rows(forked) == reference, (
        "forked scalar workload sweep diverged"
    )
    assert _workload_rows(vector_cold) == reference, (
        "vector workload sweep diverged from the scalar baseline"
    )
    assert _workload_rows(vector_warm) == reference, (
        "warm vector workload sweep diverged"
    )
    assert vector_cold.fallback_totals() == {}, (
        "the Table I grid must vectorize without fallbacks"
    )

    # Coverage: datacenter + bf16 training grids, workload sim included.
    _cold()
    coverage = BatchEstimator(ctx).estimate_points(
        POINTS + TRAINING_POINTS, workloads=workloads, batches=batches
    )
    totals = coverage.fallback_totals()
    assert coverage.vectorized_count == len(POINTS) + len(TRAINING_POINTS)

    speedup = forked_s / vector_cold_s if vector_cold_s > 0 else (
        float("inf")
    )
    emit(
        format_table(
            ["pass", "wall s", "points/s"],
            [
                [name, f"{seconds:.3f}", f"{len(POINTS) / seconds:.0f}"]
                for name, seconds in [
                    ("scalar forked (chunk=1)", forked_s),
                    ("scalar inline cold", scalar_s),
                    ("vector cold", vector_cold_s),
                    ("vector warm", vector_warm_s),
                ]
            ],
        )
        + f"\n\nworkload sweep: vector cold vs. forked scalar "
        f"{speedup:.1f}x; coverage "
        f"{coverage.vectorized_count}/{len(POINTS) + len(TRAINING_POINTS)} "
        f"points vectorized, fallbacks {totals or 'none'}"
    )
    emit_bench(
        "vector_workload_sweep",
        round_floats(
            {
                "grid_points": len(POINTS),
                "smoke": _SMOKE,
                "workloads": [name for name, _ in workloads],
                "batches": batches,
                "wall_s": {
                    "scalar_forked_cold": forked_s,
                    "scalar_inline_cold": scalar_s,
                    "vector_cold": vector_cold_s,
                    "vector_warm": vector_warm_s,
                },
                "speedup": {
                    "vector_cold_vs_scalar_forked": speedup,
                    "vector_cold_vs_scalar_inline_cold": (
                        scalar_s / vector_cold_s
                    ),
                },
                "coverage": {
                    "points": len(POINTS) + len(TRAINING_POINTS),
                    "vectorized": coverage.vectorized_count,
                    "fallbacks": totals,
                },
            }
        ),
    )
    assert speedup >= _SPEEDUP_BAR, (
        f"cold vector workload sweep speedup {speedup:.2f}x is below "
        f"the {_SPEEDUP_BAR:g}x acceptance bar"
    )
