"""Exact work counts for workload simulation.

Wall time on a shared CI runner cannot be gated tightly, but how many
simulations a sweep runs can be gated exactly.  The vector backend
simulates each workload once, over every batch regime stacked on a
leading axis; the scalar latency-bound search runs each batch candidate
once and reuses the winner's run.  A walk maps a whole block of GEMM
layers per mapper call, so a small call costs a few mapper calls per
workload, not one per GEMM layer.  Both backends walk a graph's
flattened ``GraphSpec``, memoized on the graph, so evaluating a second
design point never costs a layer again.  Nor does a second vector
estimate of the Table I points build a chip: preset points take their
per-point values from the preset's rule.
"""

from __future__ import annotations

import pytest

import repro.batch.perf as batch_perf
import repro.cache.keys as cache_keys
import repro.perf.simulator as simulator
from repro.arch.chip import ChipConfig
from repro.batch import BatchEstimator
from repro.cache import estimate_cache_disabled
from repro.config.presets import datacenter_context
from repro.dse.space import DesignPoint, full_grid
from repro.dse.sweep import evaluate_point
from repro.perf.graph import LayerNode
from repro.perf.simulator import BATCH_CANDIDATES, LayerSpec, Simulator
from repro.workloads import (
    inception_v3,
    mobilenet_v2,
    nasnet_a_large,
    resnet50,
)

#: The Fig. 10 recipe: the three datacenter CNNs at three batch regimes.
FIG10_BATCHES = (1, "latency-bound", 256)


def _fig10_workloads():
    return [
        ("ResNet", resnet50()),
        ("Inception", inception_v3()),
        ("NASNet", nasnet_a_large()),
    ]


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call bumps the returned counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "batches, per_workload", [((1, "latency-bound", 256), 1), ((), 0)]
)
def test_vector_sweep_simulates_each_workload_once(
    monkeypatch, batches, per_workload
):
    workloads = [
        ("ResNet", resnet50()),
        ("Inception", inception_v3()),
        ("MobileNet", mobilenet_v2()),
    ]
    points = [DesignPoint(16, 1, 2, 2), DesignPoint(128, 2, 4, 2)]
    calls = _count_calls(monkeypatch, batch_perf, "walk_graph")
    estimator = BatchEstimator(datacenter_context())
    with estimate_cache_disabled():
        result = estimator.estimate_points(
            points, workloads=workloads, batches=batches
        )
    assert result.fallback_reasons == {}
    for summary in result.summaries:
        assert len(summary.outcomes) == len(batches) * len(workloads)
    assert len(calls) == per_workload * len(workloads)


@pytest.mark.parametrize(
    "batches, per_workload",
    [(("latency-bound",), len(BATCH_CANDIDATES)), ((), 0)],
)
def test_scalar_latency_bound_runs_each_candidate_once(
    monkeypatch, batches, per_workload
):
    workloads = [("ResNet", resnet50()), ("MobileNet", mobilenet_v2())]
    calls = _count_calls(monkeypatch, Simulator, "run")
    result = evaluate_point(
        DesignPoint(64, 2, 2, 4), workloads, batches, datacenter_context()
    )
    assert len(result.outcomes) == len(batches) * len(workloads)
    assert len(calls) == per_workload * len(workloads)


def test_one_point_estimate_maps_each_workload_once(monkeypatch):
    calls = _count_calls(monkeypatch, simulator, "map_gemm_dims")
    with estimate_cache_disabled():
        result = BatchEstimator(datacenter_context()).estimate_points(
            [DesignPoint(64, 2, 2, 4)],
            workloads=_fig10_workloads(),
            batches=(1,),
        )
    assert result.fallback_reasons == {}
    assert len(calls) == 3


def test_scalar_run_maps_its_gemm_layers_in_one_call(monkeypatch):
    chip = DesignPoint(64, 2, 2, 4).build()
    simulator_ = Simulator(chip, datacenter_context())
    calls = _count_calls(monkeypatch, simulator, "map_gemm_dims")
    result = simulator_.run(resnet50(), 1)
    assert len(result.layers) == 121
    assert len(calls) == 1


def test_second_scalar_evaluation_flattens_no_layer(monkeypatch):
    workloads = _fig10_workloads()
    ctx = datacenter_context()
    evaluate_point(DesignPoint(64, 2, 2, 4), workloads, FIG10_BATCHES, ctx)
    calls = _count_calls(monkeypatch, LayerNode, "cost")
    result = evaluate_point(
        DesignPoint(16, 1, 2, 2), workloads, FIG10_BATCHES, ctx
    )
    assert len(result.outcomes) == len(FIG10_BATCHES) * len(workloads)
    assert len(calls) == 0


def test_second_vector_estimate_flattens_no_layer(monkeypatch):
    workloads = _fig10_workloads()
    estimator = BatchEstimator(datacenter_context())
    with estimate_cache_disabled():
        estimator.estimate_points(
            [DesignPoint(64, 2, 2, 4)],
            workloads=workloads,
            batches=FIG10_BATCHES,
        )
        calls = _count_calls(monkeypatch, LayerNode, "cost")
        result = estimator.estimate_points(
            [DesignPoint(16, 1, 2, 2), DesignPoint(128, 2, 4, 2)],
            workloads=workloads,
            batches=FIG10_BATCHES,
        )
    assert result.fallback_reasons == {}
    assert len(calls) == 0


def test_second_vector_estimate_canonicalizes_no_layer(monkeypatch):
    workloads = _fig10_workloads()
    estimator = BatchEstimator(datacenter_context())
    estimator.estimate_points(
        [DesignPoint(64, 2, 2, 4)], workloads=workloads, batches=FIG10_BATCHES
    )
    layers = []
    configs = []
    canonicalize = cache_keys.canonicalize

    def counted(obj, _depth=0):
        if isinstance(obj, LayerSpec):
            layers.append(obj)
        if isinstance(obj, ChipConfig):
            configs.append(obj)
        return canonicalize(obj, _depth)

    monkeypatch.setattr(cache_keys, "canonicalize", counted)
    result = estimator.estimate_points(
        [DesignPoint(16, 1, 2, 2), DesignPoint(128, 2, 4, 2)],
        workloads=workloads,
        batches=FIG10_BATCHES,
    )
    assert result.fallback_reasons == {}
    assert len(layers) == 0
    # The (context, shape) digest is the substrate's, computed once.
    assert len(configs) == 0


@pytest.mark.parametrize("cached", [True, False])
def test_second_table1_estimate_builds_no_chip_config(monkeypatch, cached):
    """Preset points take their values from the preset's rule; with the
    estimate cache on the second call hits it, with it off the second
    call runs the kernels, and neither builds a chip."""
    points = full_grid()
    estimator = BatchEstimator(datacenter_context())
    estimator.estimate_points(points)
    configs = _count_calls(monkeypatch, ChipConfig, "__init__")
    if cached:
        result = estimator.estimate_points(points)
    else:
        with estimate_cache_disabled():
            result = estimator.estimate_points(points)
    assert result.fallback_reasons == {}
    assert len(configs) == 0
