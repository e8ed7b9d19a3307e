"""How the batch layer gets each point's shape and per-point values.

A point whose ``build`` is ``DesignPoint.build`` takes the datacenter
preset's shape and the values of the preset's rule (``datacenter_axes``)
without a build.  The rule equals build + ``split_config`` in value and
in Python type on every Table I point and on every value of every
expanded-space axis, so each point's cache key is what its build gives.
Any other point is built and split, even one whose ``build`` returns the
preset's chip.  So a point that differs from a preset only in its
per-point values (TU rows and cols, TUs per core, VU lanes, the Mem
slice, the core grid) runs on the vector path with its own values, bit
for bit against the scalar path, and keeps its own cache entry.
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.chip import Chip, axes_of, shape_of
from repro.batch import BatchEstimator
from repro.batch.estimator import classify_point
from repro.config.presets import datacenter_context, datacenter_design_point
from repro.dse.space import DesignPoint, SpaceAxes, full_grid
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
            assert got.latency_ms == want.latency_ms, point


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


def _rule_points():
    """Every Table I point, then each value of each expanded-space axis
    with the other coordinates held at one point's."""
    yield from full_grid()
    axes = SpaceAxes.expanded()
    x, n, tx, ty = 64, 2, 2, 4
    for value in axes.x_values:
        yield DesignPoint(value, n, tx, ty)
    for value in axes.n_values:
        yield DesignPoint(x, value, tx, ty)
    for grid_x, grid_y in axes.grid_pairs:
        yield DesignPoint(x, n, grid_x, grid_y)


def test_preset_rule_equals_the_split_build():
    for point in _rule_points():
        shape, values, error = classify_point(point)
        config = point.build().config
        expected = axes_of(config)
        assert error is None, point
        assert shape == shape_of(config), point
        assert values == expected, point
        assert list(map(type, values)) == list(map(type, expected)), point


def test_point_with_its_own_build_is_built():
    """Even a ``build`` that returns the preset's very chip is called."""
    calls = []

    class SameChipPoint(DesignPoint):
        def build(self):
            calls.append(self)
            return datacenter_design_point(self.x, self.n, self.tx, self.ty)

    points = [SameChipPoint(16, 1, 2, 2), SameChipPoint(64, 2, 2, 4)]
    for point in points:
        preset = DesignPoint(point.x, point.n, point.tx, point.ty)
        assert classify_point(point) == classify_point(preset)
    assert calls == points
    result = BatchEstimator(datacenter_context()).estimate_points(points)
    assert result.fallback_reasons == {}
    assert calls == points + points
