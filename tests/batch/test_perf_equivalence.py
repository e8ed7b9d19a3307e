"""Batched perf-layer equivalence: mapping, roofline, and cycle sim.

The batched transcription of ``repro/perf`` (mapping byte counts,
roofline bounds, batch resolution, cycle simulation) must reproduce the
scalar simulator bit for bit on the full Table I grid, in both the
fixed-batch and the latency-bound regimes — and the batched SRAM
bank×port organization search must find points infeasible exactly where
the scalar search does.
"""

from __future__ import annotations

import pytest

from repro.arch.component import ModelContext
from repro.batch import BatchEstimator
from repro.batch.estimator import SRAM_INFEASIBLE
from repro.cache import estimate_cache_disabled
from repro.config.presets import datacenter_context
from repro.dse.space import TU_LENGTHS, TUS_PER_CORE, DesignPoint, _grids
from repro.dse.sweep import evaluate_point
from repro.errors import OptimizationError
from repro.tech.node import node
from repro.workloads import mobilenet_v2, resnet50

FULL_GRID = [
    DesignPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]

_METRICS = ("area_mm2", "tdp_w", "peak_tops")


def _assert_outcomes_bit_exact(summary, reference, point):
    assert len(summary.outcomes) == len(reference.outcomes), point
    for got, want in zip(summary.outcomes, reference.outcomes):
        assert got.workload == want.workload, point
        assert got.batch == want.batch, point
        assert got.regime == want.regime, point
        assert got.achieved_tops == want.achieved_tops, point
        assert got.utilization == want.utilization, point
        assert got.runtime_power_w == want.runtime_power_w, point
        assert got.latency_ms == want.latency_ms, point


def test_full_grid_workload_sim_is_bit_exact_with_scalar():
    ctx = datacenter_context()
    workloads = [("ResNet", resnet50())]
    batch = BatchEstimator(ctx).estimate_points(
        FULL_GRID, workloads=workloads, batches=(4,)
    )
    assert batch.fallback_reasons == {}
    for point, summary in zip(FULL_GRID, batch.summaries):
        reference = evaluate_point(point, workloads, [4], ctx)
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )
        _assert_outcomes_bit_exact(summary, reference, point)


_SLO_SUBSET = [
    DesignPoint(4, 1, 1, 1),
    DesignPoint(16, 1, 2, 2),
    DesignPoint(64, 2, 2, 4),
    DesignPoint(128, 2, 4, 2),
    DesignPoint(256, 1, 4, 4),
]


def _assert_batch_specs_bit_exact(batches, **slo):
    ctx = datacenter_context()
    workloads = [("ResNet", resnet50()), ("MobileNet", mobilenet_v2())]
    batch = BatchEstimator(ctx).estimate_points(
        _SLO_SUBSET, workloads=workloads, batches=batches, **slo
    )
    assert batch.fallback_reasons == {}
    for point, summary in zip(_SLO_SUBSET, batch.summaries):
        reference = evaluate_point(point, workloads, list(batches), ctx, **slo)
        _assert_outcomes_bit_exact(summary, reference, point)
    return batch


def test_latency_bound_regime_is_bit_exact_with_scalar():
    _assert_batch_specs_bit_exact((1, "latency-bound", 64))


@pytest.mark.parametrize(
    "batches, slo_ms",
    [
        (("latency-bound", 1), 10.0),
        ((3, "latency-bound", 100), 10.0),
        ((1, 1), 10.0),
        ((1, "latency-bound", 64), 2.0),
        ((1, "latency-bound", 64), 50.0),
        (("latency-bound",), 1e-6),
    ],
    ids=[
        "latency-bound-first",
        "fixed-outside-candidates",
        "repeated-spec",
        "slo-2ms",
        "slo-50ms",
        "slo-unmet",
    ],
)
def test_batch_spec_variants_are_bit_exact_with_scalar(batches, slo_ms):
    batch = _assert_batch_specs_bit_exact(batches, latency_slo_ms=slo_ms)
    if slo_ms < 1e-3:  # no candidate meets it: batch 1 everywhere
        for point, summary in zip(_SLO_SUBSET, batch.summaries):
            assert {o.batch for o in summary.outcomes} == {1}, point


def test_sram_search_matches_scalar_feasibility():
    """At 8 GHz the Table I grid splits; both paths must agree where."""
    hot = ModelContext(tech=node(28), freq_ghz=8.0)
    scalar = {}
    for point in FULL_GRID:
        try:
            scalar[point] = evaluate_point(
                point, (), (), hot, latency_slo_ms=None
            )
        except OptimizationError:
            scalar[point] = None
    infeasible = {point for point, ref in scalar.items() if ref is None}
    assert infeasible and len(infeasible) < len(FULL_GRID)

    batch = BatchEstimator(hot).estimate_points(FULL_GRID)
    tagged = {
        FULL_GRID[index]
        for index, reason in batch.fallback_reasons.items()
        if reason == SRAM_INFEASIBLE
    }
    assert tagged == infeasible
    assert set(batch.fallback_reasons.values()) == {SRAM_INFEASIBLE}
    for point, summary in zip(FULL_GRID, batch.summaries):
        reference = scalar[point]
        if reference is None:
            assert summary is None, point
            continue
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )


def test_warm_batch_hits_the_estimate_cache():
    """A repeated batched sweep must come back from the estimate cache."""
    from repro.cache import get_estimate_cache

    ctx = datacenter_context()
    subset = [DesignPoint(16, 1, 2, 2), DesignPoint(64, 2, 2, 4)]
    workloads = [("MobileNet", mobilenet_v2())]
    estimator = BatchEstimator(ctx)
    cold = estimator.estimate_points(subset, workloads=workloads, batches=(1,))
    cache = get_estimate_cache()
    before = cache.stats.hits
    warm = estimator.estimate_points(subset, workloads=workloads, batches=(1,))
    assert cache.stats.hits >= before + len(subset)
    assert warm.summaries == cold.summaries


def test_cache_can_be_disabled_per_estimator():
    ctx = datacenter_context()
    subset = [DesignPoint(16, 1, 2, 2)]
    cached = BatchEstimator(ctx).estimate_points(subset)
    with estimate_cache_disabled():
        uncached = BatchEstimator(ctx).estimate_points(subset)
    (a,) = cached.summaries
    (b,) = uncached.summaries
    for name in _METRICS:
        assert getattr(a, name) == getattr(b, name)
