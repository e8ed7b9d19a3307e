"""The batch layer reads each point's per-point values from its build.

A point vectorizes when its configuration, with TU rows and cols, TUs
per core, VU lanes, the Mem slice and the core grid set to 1, has a
shape the kernels model.  So a point that differs from a preset only in
those values runs on the vector path, bit for bit against the scalar
path, and its own values reach the kernels and the cache key.
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.chip import Chip
from repro.batch import BatchEstimator
from repro.config.presets import datacenter_context, datacenter_design_point
from repro.dse.space import DesignPoint
from repro.dse.sweep import evaluate_point
from repro.units import MiB
from repro.workloads import resnet50

_METRICS = ("area_mm2", "tdp_w", "peak_tops")
_BATCHES = (1, "latency-bound")


class SixteenMiBPoint(DesignPoint):
    """A Table I point with a 16 MiB on-chip memory pool."""

    def build(self):
        return datacenter_design_point(
            self.x, self.n, self.tx, self.ty, mem_capacity_bytes=16 * MiB
        )


class HalfWidthPoint(DesignPoint):
    """A Table I point whose TUs have X rows and X/2 columns."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        tu = replace(core.tu, cols=core.tu.cols // 2)
        return Chip(replace(chip.config, core=replace(core, tu=tu)))


def _assert_bit_exact_with_scalar(points) -> None:
    ctx = datacenter_context()
    workloads = [("ResNet", resnet50())]
    batch = BatchEstimator(ctx).estimate_points(
        points, workloads=workloads, batches=_BATCHES
    )
    assert batch.fallback_reasons == {}
    for point, summary in zip(points, batch.summaries):
        reference = evaluate_point(point, workloads, list(_BATCHES), ctx)
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )
        assert len(summary.outcomes) == len(reference.outcomes), point
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.batch == want.batch, point
            assert got.regime == want.regime, point
            assert got.achieved_tops == want.achieved_tops, point
            assert got.utilization == want.utilization, point
            assert got.runtime_power_w == want.runtime_power_w, point
            assert got.latency_ms == want.result.latency_ms, point


def test_mem_capacity_variant_vectorizes_bit_exact():
    _assert_bit_exact_with_scalar(
        [
            SixteenMiBPoint(16, 1, 2, 2),
            SixteenMiBPoint(64, 2, 2, 4),
            SixteenMiBPoint(128, 4, 1, 1),
        ]
    )


def test_half_width_tensor_units_vectorize_bit_exact():
    _assert_bit_exact_with_scalar(
        [
            HalfWidthPoint(16, 1, 2, 2),
            HalfWidthPoint(32, 4, 1, 2),
            HalfWidthPoint(64, 2, 2, 4),
        ]
    )


def test_mem_capacity_variant_gets_its_own_summaries():
    """Same coordinates, different builds: never one cache entry."""
    points = [DesignPoint(64, 2, 2, 4), SixteenMiBPoint(64, 2, 2, 4)]
    estimator = BatchEstimator(datacenter_context())
    for _ in range(2):  # cold, then served from the estimate cache
        base, variant = estimator.estimate_points(points).summaries
        assert base is not None and variant is not None
        assert base.area_mm2 != variant.area_mm2
        assert base.peak_tops == variant.peak_tops
        single = estimator.estimate_points(points[1:]).summaries[0]
        assert single.area_mm2 == variant.area_mm2
