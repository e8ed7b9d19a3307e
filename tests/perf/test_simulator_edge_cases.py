"""Simulator edge cases: serialization, fusion, stem folding, tiny chips."""

import pytest

from repro.arch.chip import Chip, ChipConfig
from repro.arch.component import ModelContext
from repro.arch.core import CoreConfig
from repro.arch.memory import OnChipMemoryConfig
from repro.arch.tensor_unit import TensorUnitConfig
from repro.config.presets import datacenter_context
from repro.dse.engine import run_sweep
from repro.dse.space import DesignPoint
from repro.dse.sweep import evaluate_point
from repro.errors import MappingError
from repro.perf import scalar
from repro.perf.graph import Graph
from repro.perf.mapping import ArchView, map_gemm
from repro.perf.ops import (
    Activation,
    Conv2d,
    Elementwise,
    Gemm,
    MatMul,
    Pool,
)
from repro.perf.optimizations import OptimizationConfig, fold_stem
from repro.perf.simulator import GraphSpec, Simulator


@pytest.fixture(scope="module")
def ctx():
    return datacenter_context()


@pytest.fixture(scope="module")
def chip():
    return DesignPoint(32, 2, 2, 2).build()


def _stem_graph() -> Graph:
    graph = Graph("stem", (224, 224, 3))
    graph.add("stem", Conv2d(64, kernel=7, stride=2), ["input"])
    graph.add("relu", Activation())
    return graph


def test_serialized_movement_without_double_buffering(chip, ctx):
    graph = _stem_graph()
    on = Simulator(
        chip, ctx, OptimizationConfig(double_buffering=True)
    ).run(graph, 1)
    off = Simulator(
        chip, ctx, OptimizationConfig(double_buffering=False)
    ).run(graph, 1)
    # Without overlap, movement adds to compute instead of hiding under it.
    assert off.total_cycles > on.total_cycles


def test_space_to_depth_only_affects_the_stem(chip, ctx):
    graph = _stem_graph()
    arch = ArchView.of(chip, ctx)
    gemms, mappings = {}, {}
    for s2d in (True, False):
        opt = OptimizationConfig(space_to_depth=s2d)
        spec = GraphSpec.of(graph, opt)
        assert [layer.space_to_depth for layer in spec.layers] == [s2d, False]
        stem = spec.layers[0]
        m, k = stem.gemm_m, stem.gemm_k
        if stem.space_to_depth:
            m, k = fold_stem(m, k, scalar)
        gemms[s2d] = Gemm(m, k, stem.gemm_n)
        mappings[s2d] = map_gemm(gemms[s2d], arch, opt)
    folded_gemm, plain_gemm = gemms[True], gemms[False]
    assert folded_gemm.k == 4 * plain_gemm.k
    assert folded_gemm.macs == plain_gemm.macs
    assert mappings[True].useful_macs == mappings[False].useful_macs


def test_fusion_absorbs_cheap_activations(chip, ctx):
    graph = Graph("fused", (56, 56, 64))
    graph.add("conv", Conv2d(128, kernel=3), ["input"])
    graph.add("relu", Activation())
    result = Simulator(chip, ctx).run(graph, 1)
    by_name = {layer.name: layer for layer in result.layers}
    # The pointwise layer rides the GEMM's drain path: near-free.
    assert by_name["relu"].cycles < by_name["conv"].cycles * 0.2


def test_unfused_eltwise_after_vector_layer_pays_launch(chip, ctx):
    graph = Graph("chain", (28, 28, 32))
    graph.add("conv", Conv2d(32, kernel=3), ["input"])
    graph.add("add", Elementwise(), ["conv", "input"])
    graph.add("add2", Elementwise(), ["add", "conv"])
    result = Simulator(chip, ctx).run(graph, 1)
    assert result.total_cycles > 0
    assert len(result.layers) == 3


def test_single_core_single_tu_chip(ctx):
    tiny = Chip(
        ChipConfig(
            core=CoreConfig(
                tu=TensorUnitConfig(rows=8, cols=8),
                mem=OnChipMemoryConfig(
                    capacity_bytes=256 * 1024, block_bytes=16
                ),
            ),
            cores_x=1,
            cores_y=1,
        )
    )
    result = Simulator(tiny, ctx).run(_stem_graph(), 1)
    assert result.throughput_fps > 0
    assert result.activity.noc_gbps == 0.0


def test_weightless_gemm_streams_no_weights(chip, ctx):
    graph = Graph("attn", (1, 1, 512))
    graph.add(
        "scores", Conv2d(256, kernel=1, weightless=True), ["input"]
    )
    simulator = Simulator(chip, ctx)
    result = simulator.run(graph, 1)
    # No parameters: nothing streams from DRAM for this layer.
    assert graph.total_params_bytes() == 0
    assert result.activity.offchip_gbps == pytest.approx(0.0, abs=1e-9)


def _past_the_exact_range() -> list:
    """(graph, batch) pairs whose counts reach 2**53: the MACs, and, in
    a graph with no MAC at all, the vector ops and bytes."""
    macs = Graph("huge-macs", (1, 1, 1 << 20))
    macs.add("fc", MatMul(1 << 20), ["input"])
    vectors = Graph("huge-vectors", (1 << 13, 1 << 13, 1 << 10))
    vectors.add("pool", Pool(), ["input"])
    return [(macs, 1 << 12), (vectors, 1 << 17)]


@pytest.mark.parametrize(
    "graph, batch", _past_the_exact_range(), ids=["macs", "vector-ops"]
)
def test_counts_past_float64s_exact_range_raise(graph, batch, ctx):
    """Both backends count in float64, so neither rounds silently."""
    point = DesignPoint(32, 2, 2, 2)
    workloads = [(graph.name, graph)]
    with pytest.raises(MappingError, match=graph.name):
        Simulator(point.build(), ctx).run(graph, batch)
    with pytest.raises(MappingError, match=graph.name):
        evaluate_point(point, workloads, [batch], ctx)
    report = run_sweep(
        [point],
        workloads,
        [batch],
        ctx,
        backend="auto",
        strict=False,
        retry_degraded=False,
    )
    [record] = report.records
    assert record.status == "failed"
    assert record.failure.error_type == "MappingError"
    assert graph.name in record.failure.message
