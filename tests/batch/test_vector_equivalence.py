"""Scalar/vector equivalence and fallback contracts of the batch backend.

The vectorized kernels call the scalar models' circuit closed forms and
transcribe how ``repro.arch`` assembles them, so the two paths must agree
to float round-off (the acceptance bar is 1e-9 relative) on the *entire*
Table I grid — not a sample — and exactly off the default context.
Chips of any shape take the vector path, and build failures must
surface the original error instead of masquerading as configuration
mismatches.
"""

from __future__ import annotations

import math

import pytest

from repro.arch.component import Estimate, ModelContext
from repro.batch import BatchEstimator
from repro.arch.chip import axes_of, shape_of
from repro.batch.estimator import (
    BUILD_FAILED,
    SRAM_INFEASIBLE,
    classify_point,
)
from repro.config.presets import (
    datacenter_context,
    datacenter_training_point,
    tpu_v1,
)
from repro.dse.engine import run_sweep
from repro.dse.space import TU_LENGTHS, TUS_PER_CORE, DesignPoint, _grids
from repro.dse.sweep import evaluate_point
from repro.errors import ConfigurationError, OptimizationError
from repro.workloads import mobilenet_v2
from repro.tech.node import node

#: Acceptance tolerance for scalar/vector agreement.
RTOL = 1e-9

#: The full unpruned Table I grid: every (X, N, Tx, Ty) combination.
FULL_GRID = [
    DesignPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]

#: Pinned scalar reference values; drift in either path trips this.
PINNED = {
    DesignPoint(64, 2, 2, 4): (
        394.14550927370044, 138.1624866804989, 91.7504
    ),
    DesignPoint(256, 1, 1, 1): (
        375.6936838422507, 141.6018504327479, 91.7504
    ),
    DesignPoint(4, 1, 1, 1): (
        267.20098439520274, 72.57797383108127, 0.0224
    ),
}

_METRICS = ("area_mm2", "tdp_w", "peak_tops")


class TrainingPoint(DesignPoint):
    """A point building the bf16 training preset (exotic datatype)."""

    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


class ForeignPoint(DesignPoint):
    """A point building a chip of a shape no preset has (TPU-v1's)."""

    def build(self):
        return tpu_v1()


class BrokenPoint(DesignPoint):
    """A point whose build() itself raises."""

    def build(self):
        raise RuntimeError("intentional build failure")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_full_grid_scalar_vector_equivalence():
    ctx = datacenter_context()
    batch = BatchEstimator(ctx).estimate_points(FULL_GRID)
    assert batch.vectorized_count + len(batch.fallback_reasons) == len(
        FULL_GRID
    )
    for point, summary in zip(FULL_GRID, batch.summaries):
        try:
            reference = evaluate_point(
                point, (), (), ctx, latency_slo_ms=None
            )
        except OptimizationError:
            # The scalar model found the point infeasible; the vector
            # path must have routed it back for exactly that outcome.
            assert summary is None
            continue
        assert summary is not None, f"vector path dropped {point}"
        for name in _METRICS:
            assert _rel(
                getattr(summary, name), getattr(reference, name)
            ) <= RTOL, (point, name)


@pytest.mark.parametrize(
    "feature_nm, freq_ghz", [(65, 0.5), (7, 0.9), (22, 0.7)]
)
def test_full_grid_is_bit_identical_off_the_default_context(
    feature_nm, freq_ghz
):
    """Both backends share the circuit closed forms and the SRAM search,
    so off the Table I context (tabulated and interpolated nodes) they
    must agree exactly, not just to round-off."""
    ctx = ModelContext(node(feature_nm), freq_ghz)
    batch = BatchEstimator(ctx).estimate_points(FULL_GRID)
    for point, summary in zip(FULL_GRID, batch.summaries):
        try:
            reference = evaluate_point(
                point, (), (), ctx, latency_slo_ms=None
            )
        except OptimizationError:
            assert summary is None, point
            continue
        assert summary is not None, f"vector path dropped {point}"
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )


def test_full_grid_pinned_regression():
    ctx = datacenter_context()
    batch = BatchEstimator(ctx).estimate_points(list(PINNED))
    for point, summary in zip(PINNED, batch.summaries):
        assert summary is not None
        for name, expected in zip(_METRICS, PINNED[point]):
            assert _rel(getattr(summary, name), expected) <= RTOL, (
                point,
                name,
            )


def test_preset_families_are_vector_supported():
    base, base_values, base_error = classify_point(DesignPoint(16, 1, 2, 2))
    training, training_values, training_error = classify_point(
        TrainingPoint(16, 1, 2, 2)
    )
    assert base is not None and training is not None
    assert base != training
    assert base_error is None and training_error is None
    assert base_values.lanes == 16
    assert training_values.lanes == 32


def test_foreign_point_classifies_to_its_own_shape():
    config = tpu_v1().config
    shape, values, error = classify_point(ForeignPoint(16, 1, 2, 2))
    assert error is None
    assert shape == shape_of(config)
    assert values == axes_of(config)
    base, _, _ = classify_point(DesignPoint(16, 1, 2, 2))
    assert shape != base


def test_build_failure_surfaces_the_original_error():
    """A raising build() must not be misfiled as a config mismatch."""
    shape, values, error = classify_point(BrokenPoint(16, 1, 2, 2))
    assert shape is None and values is None
    assert isinstance(error, RuntimeError)
    assert "intentional build failure" in str(error)


def test_auto_backend_falls_back_to_scalar_identically():
    """`auto` on an exotic-datatype point degrades to the scalar path."""
    ctx = datacenter_context()
    mixed = [DesignPoint(16, 1, 2, 2), TrainingPoint(16, 1, 2, 2)]
    auto = run_sweep(mixed, ctx=ctx, backend="auto")
    scalar = run_sweep(mixed, ctx=ctx, backend="scalar")
    assert [r.status for r in auto.records] == ["ok", "ok"]
    for fast, slow in zip(auto.records, scalar.records):
        assert fast.point == slow.point
        for name in _METRICS:
            assert getattr(fast.result, name) == getattr(
                slow.result, name
            ), (fast.point, name)


def test_vector_backend_evaluates_tpu_v1_as_scalar_does():
    ctx = datacenter_context()
    workloads = [("MobileNet", mobilenet_v2())]
    points = [ForeignPoint(16, 1, 2, 2)]
    fast = run_sweep(points, workloads, [1], ctx, backend="vector")
    slow = run_sweep(points, workloads, [1], ctx, backend="scalar")
    assert [r.status for r in fast.records] == ["ok"]
    assert fast.fallback_totals() == {}
    assert fast.records[0].metrics == slow.records[0].metrics


def test_vector_backend_simulates_workloads():
    """Workload eval runs through the batched perf layer, not scalar."""
    ctx = datacenter_context()
    workloads = [("MobileNet", mobilenet_v2())]
    fast = run_sweep(
        [DesignPoint(16, 1, 2, 2)], workloads, [1], ctx,
        backend="vector",
    )
    slow = run_sweep(
        [DesignPoint(16, 1, 2, 2)], workloads, [1], ctx,
        backend="scalar",
    )
    assert [r.status for r in fast.records] == ["ok"]
    assert fast.fallback_totals() == {}
    assert fast.records[0].metrics == slow.records[0].metrics


def test_engine_rejects_unknown_backend():
    with pytest.raises(ConfigurationError, match="backend"):
        run_sweep([DesignPoint(16, 1, 2, 2)], backend="simd")


def test_batch_result_reports_fallback_reasons():
    ctx = datacenter_context()
    points = [
        ForeignPoint(8, 1, 1, 1),
        BrokenPoint(8, 1, 1, 1),
        DesignPoint(8, 1, 1, 1),
    ]
    batch = BatchEstimator(ctx).estimate_points(points)
    assert batch.fallback_reasons == {1: BUILD_FAILED}
    assert batch.fallback_indices == (1,)
    assert isinstance(batch.errors[1], RuntimeError)
    assert 0 not in batch.errors
    assert batch.summaries[0] is not None
    assert batch.summaries[1] is None
    assert batch.summaries[2] is not None
    assert batch.vectorized_count == 2
    assert batch.fallback_totals() == {BUILD_FAILED: 1}


def test_vector_summaries_are_plain_floats():
    """Journal rows must serialize; no numpy scalars may leak out.

    The scalar path shares the circuit closed forms with the kernels, and
    cache keys canonicalize floats by repr, so a numpy scalar leaking out
    of a circuit model would silently change an estimate's key: every
    value of a scalar result and its estimate tree is a plain float too.
    """
    ctx = datacenter_context()
    batch = BatchEstimator(ctx).estimate_points(
        [DesignPoint(32, 2, 2, 2)]
    )
    (summary,) = batch.summaries
    for name in _METRICS:
        value = getattr(summary, name)
        assert type(value) is float
        assert math.isfinite(value)

    result = evaluate_point(DesignPoint(32, 2, 2, 2), (), (), ctx)
    for name in _METRICS + ("peak_tops_per_watt", "peak_tops_per_tco"):
        assert type(getattr(result, name)) is float, name

    def walk(estimate: Estimate) -> None:
        for name in ("area_mm2", "dynamic_w", "leakage_w", "cycle_time_ns"):
            assert type(getattr(estimate, name)) is float, (
                estimate.name,
                name,
            )
        for child in estimate.children:
            walk(child)

    walk(result.estimate)


def test_infeasible_fallback_reason_constant_exists():
    # The constant is part of the estimator's public fallback protocol.
    assert SRAM_INFEASIBLE == "sram-infeasible"
