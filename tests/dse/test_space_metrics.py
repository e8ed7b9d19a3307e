"""Design-space enumeration and efficiency metrics."""

import pytest

from repro.config.presets import datacenter_context
from repro.dse.metrics import (
    arithmetic_mean,
    geomean,
    tops_per_tco,
    tops_per_watt,
)
from repro.dse.pareto import pareto_front
from repro.dse.space import (
    DesignPoint,
    design_space,
    max_core_point,
    named_points,
)
from repro.errors import ConfigurationError


class TestDesignPoint:
    def test_macs_per_cycle(self):
        assert DesignPoint(64, 2, 2, 4).macs_per_cycle == 65536

    def test_peak_tops(self):
        point = DesignPoint(64, 2, 2, 4)
        assert point.peak_tops(0.7) == pytest.approx(91.75, rel=1e-3)

    def test_build_produces_matching_chip(self):
        point = DesignPoint(32, 4, 2, 2)
        chip = point.build()
        assert chip.config.macs_per_cycle == point.macs_per_cycle

    def test_label(self):
        assert DesignPoint(8, 4, 4, 8).label() == "(8,4,4,8)"

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignPoint(0, 1, 1, 1)


class TestSpace:
    def test_tops_cap_enforced_without_budget_checks(self):
        ctx = datacenter_context()
        points = design_space(ctx, check_budgets=False)
        assert points, "space must not be empty"
        assert all(
            p.peak_tops(ctx.freq_ghz) <= 92.0 + 1e-6 for p in points
        )

    def test_grids_near_square(self):
        points = design_space(check_budgets=False)
        assert all(p.ty in (p.tx, 2 * p.tx) for p in points)

    def test_named_points_inside_the_space(self):
        space = set(design_space(check_budgets=False))
        for point in named_points().values():
            assert point in space

    def test_max_core_point_maximizes_cores(self):
        best = max_core_point(64, 2)
        assert best is not None
        assert best.cores >= 4
        # The throughput-optimal point of the paper is the 8-core grid.
        assert best.peak_tops(0.7) <= 92.0 + 1e-6


class TestMetrics:
    def test_tops_per_watt(self):
        assert tops_per_watt(92.0, 100.0) == pytest.approx(0.92)

    def test_tops_per_tco_penalizes_area_quadratically(self):
        base = tops_per_tco(10.0, 100.0, 10.0)
        bigger = tops_per_tco(10.0, 200.0, 10.0)
        assert base / bigger == pytest.approx(4.0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            geomean([1.0, 0.0])
        with pytest.raises(ConfigurationError):
            geomean([])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == pytest.approx(2.0)

    def test_metrics_reject_nonpositive_denominators(self):
        with pytest.raises(ConfigurationError):
            tops_per_watt(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            tops_per_tco(1.0, 0.0, 1.0)


class TestPareto:
    def test_dominated_points_removed(self):
        points = [(1.0, 1.0), (2.0, 2.0), (1.5, 0.5)]
        front = pareto_front(
            points, [lambda p: p[0], lambda p: p[1]]
        )
        assert (2.0, 2.0) in front
        assert (1.0, 1.0) not in front

    def test_incomparable_points_kept(self):
        points = [(1.0, 3.0), (3.0, 1.0)]
        front = pareto_front(points, [lambda p: p[0], lambda p: p[1]])
        assert len(front) == 2


class TestPositiveGeomean:
    """The strict geomean behind the sweep's averaged metrics.

    Historically the mean_* helpers clamped entries with
    ``max(x, 1e-9)``, which silently turned a broken upstream model
    (zero utilization, NaN efficiency) into a tiny-but-plausible
    average.  The strict variant attributes the bad entry instead.
    """

    def test_agrees_with_geomean_on_valid_inputs(self):
        from repro.dse.metrics import positive_geomean

        values = [0.25, 1.0, 4.0]
        assert positive_geomean(values) == pytest.approx(geomean(values))

    def test_rejects_zero_with_attributed_error(self):
        from repro.dse.metrics import positive_geomean
        from repro.errors import NumericalError

        with pytest.raises(NumericalError, match=r"utilization\[1\]"):
            positive_geomean([0.5, 0.0, 0.9], field="utilization")

    def test_rejects_nan_inf_negative_and_bool(self):
        from repro.dse.metrics import positive_geomean
        from repro.errors import NumericalError

        for bad in (float("nan"), float("inf"), -1.0, True):
            with pytest.raises(NumericalError):
                positive_geomean([bad])

    def test_empty_sequence_is_a_configuration_error(self):
        from repro.dse.metrics import positive_geomean

        with pytest.raises(ConfigurationError):
            positive_geomean([])

    def test_summary_result_surfaces_zero_utilization(self):
        """A journaled zero-utilization outcome raises, never clamps."""
        from repro.dse.journal import result_from_metrics
        from repro.errors import NumericalError

        result = result_from_metrics(
            DesignPoint(32, 4, 2, 2),
            {
                "area_mm2": 100.0,
                "tdp_w": 50.0,
                "peak_tops": 10.0,
                "outcomes": [
                    {
                        "workload": "resnet50",
                        "batch": 1,
                        "regime": "bs=1",
                        "achieved_tops": 1.0,
                        "utilization": 0.0,
                        "runtime_power_w": 40.0,
                    }
                ],
            },
        )
        with pytest.raises(NumericalError, match=r"utilization\[0\]"):
            result.mean_utilization()
        # The unaffected metrics still work.
        assert result.mean_achieved_tops() == pytest.approx(1.0)
