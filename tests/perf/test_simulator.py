"""Graph-level performance simulation."""

import pytest

from repro.config.presets import (
    datacenter_context,
    eyeriss,
    eyeriss_context,
)
from repro.dse.space import DesignPoint
from repro.errors import MappingError
from repro.perf.graph import Graph
from repro.perf.ops import Activation, Conv2d, Pool
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import Simulator
from repro.workloads import resnet50


@pytest.fixture(scope="module")
def ctx():
    return datacenter_context()


@pytest.fixture(scope="module")
def brawny_sim(ctx):
    return Simulator(DesignPoint(64, 2, 2, 4).build(), ctx)


@pytest.fixture(scope="module")
def resnet():
    return resnet50()


def _toy_graph() -> Graph:
    graph = Graph("toy", (56, 56, 64))
    graph.add("conv1", Conv2d(128, kernel=3, stride=2), ["input"])
    graph.add("relu1", Activation())
    graph.add("pool", Pool(kernel=2, stride=2))
    graph.add("conv2", Conv2d(256, kernel=3))
    return graph


def test_result_consistency(brawny_sim):
    result = brawny_sim.run(_toy_graph(), batch=4)
    assert result.batch == 4
    assert result.latency_s > 0
    assert result.throughput_fps == pytest.approx(
        4 / result.latency_s, rel=1e-6
    )
    assert 0 < result.utilization <= 1.0
    assert len(result.layers) == len(_toy_graph())


def test_achieved_never_exceeds_peak(brawny_sim, resnet):
    for batch in (1, 16, 128):
        result = brawny_sim.run(resnet, batch)
        assert result.achieved_tops <= result.peak_tops * (1 + 1e-9)


@pytest.mark.parametrize("batch", [1, 200])
def test_non_square_array_never_exceeds_peak(resnet, batch):
    # Eyeriss's 14x12 array: tiles span 14 of K and 12 of N.
    result = Simulator(eyeriss(), eyeriss_context()).run(resnet, batch)
    assert result.achieved_tops <= result.peak_tops


def test_latency_grows_with_batch(brawny_sim, resnet):
    lat1 = brawny_sim.run(resnet, 1).latency_s
    lat64 = brawny_sim.run(resnet, 64).latency_s
    assert lat64 > 10 * lat1


def test_throughput_improves_then_saturates(brawny_sim, resnet):
    fps = [brawny_sim.run(resnet, b).throughput_fps for b in (1, 16, 256)]
    assert fps[1] > fps[0] * 1.2  # batching helps
    # Very large batches spill activations off-chip; throughput flattens
    # (and may dip slightly) rather than keep improving.
    assert fps[2] > fps[0] * 0.8


def test_optimizations_speed_things_up(ctx, resnet):
    chip = DesignPoint(64, 2, 2, 4).build()
    optimized = Simulator(chip, ctx, OptimizationConfig.all_on())
    baseline = Simulator(chip, ctx, OptimizationConfig.all_off())
    for batch in (1, 16):
        gain = (
            optimized.run(resnet, batch).throughput_fps
            / baseline.run(resnet, batch).throughput_fps
        )
        assert gain > 1.5


def test_invalid_batch_rejected(brawny_sim, resnet):
    with pytest.raises(MappingError):
        brawny_sim.run(resnet, 0)


def test_activity_factors_consistent(brawny_sim, resnet):
    result = brawny_sim.run(resnet, 8)
    activity = result.activity
    assert 0 < activity.tu_utilization <= 1.0
    assert activity.tu_occupancy >= activity.tu_utilization
    assert activity.mem_read_gbps > 0
    assert activity.offchip_gbps >= 0


def test_latency_limited_batch_monotone_in_slo(brawny_sim, resnet):
    tight = brawny_sim.latency_limited_batch(resnet, slo_ms=2.0)
    loose = brawny_sim.latency_limited_batch(resnet, slo_ms=50.0)
    assert loose >= tight
    assert tight >= 1


def test_wimpy_chip_has_higher_utilization(ctx, resnet):
    wimpy = Simulator(DesignPoint(8, 4, 4, 8).build(), ctx)
    brawny = Simulator(DesignPoint(256, 1, 1, 1).build(), ctx)
    assert wimpy.run(resnet, 16).utilization > (
        brawny.run(resnet, 16).utilization
    )


def test_per_layer_bounds_labelled(brawny_sim):
    result = brawny_sim.run(_toy_graph(), 1)
    allowed = {"compute", "vector", "mem-read", "mem-write", "offchip", "noc"}
    assert {layer.bound for layer in result.layers} <= allowed


def test_batch_sweep_matches_individual_runs(brawny_sim, resnet):
    series = brawny_sim.batch_sweep(resnet, batches=(1, 4))
    assert [r.batch for r in series] == [1, 4]
    assert series[0].total_cycles == brawny_sim.run(resnet, 1).total_cycles
