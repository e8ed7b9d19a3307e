"""Design-point evaluation and sweeping."""

import pytest

from repro.dse.space import DesignPoint
from repro.dse.sweep import evaluate_point, sweep
from repro.workloads import resnet50


@pytest.fixture(scope="module")
def resnet():
    return [("ResNet", resnet50())]


@pytest.fixture(scope="module")
def result(resnet):
    return evaluate_point(
        DesignPoint(64, 2, 2, 4), resnet, [1, 64]
    )


def test_chip_level_numbers(result):
    assert result.peak_tops == pytest.approx(91.75, rel=1e-3)
    assert 200 < result.area_mm2 < 500
    assert 50 < result.tdp_w < 300


def test_peak_efficiencies_positive(result):
    assert result.peak_tops_per_watt > 0
    assert result.peak_tops_per_tco > 0


def test_outcomes_per_batch(result):
    assert len(result.outcomes) == 2
    assert {o.batch for o in result.outcomes} == {1, 64}


def test_mean_metrics_filter_by_batch(result):
    assert result.mean_achieved_tops(1) != result.mean_achieved_tops(64)
    assert 0 < result.mean_utilization(1) <= 1.0
    assert result.mean_energy_efficiency(1) > 0
    assert result.mean_cost_efficiency(1) > 0


def test_runtime_power_below_tdp(result):
    for outcome in result.outcomes:
        assert outcome.runtime_power_w < result.tdp_w


def test_latency_bound_batch_spec(resnet):
    result = evaluate_point(
        DesignPoint(64, 2, 2, 4), resnet, ["latency-bound"]
    )
    outcome = result.outcomes[0]
    assert outcome.latency_ms <= 10.0 + 1e-6
    assert outcome.batch >= 1


def test_point_without_workloads_has_chip_numbers_only():
    result = evaluate_point(DesignPoint(16, 1, 2, 2))
    assert result.outcomes == ()
    assert result.area_mm2 > 0


def test_sweep_returns_one_result_per_point(resnet):
    points = [DesignPoint(32, 2, 1, 2), DesignPoint(64, 1, 1, 2)]
    results = sweep(points, resnet, [1])
    assert [r.point for r in results] == points
