"""The layer-axis walk equals the per-layer loop it replaced, bit for bit.

``repro.perf.simulator.walk_graph`` maps a block's GEMM layers in one
call, runs its vector layers as one set of array ops, and carries the
fusion credit as a segmented scan; :class:`Simulator` runs it over a
grid of one.  ``walk_reference`` keeps the Python loop over the layers
that both backends ran before.  Every simulated number must stay the
same, so:

* every output of every vector-path walk is ``np.array_equal`` to the
  loop's, shapes included: Table I at (1, latency-bound, 256), each
  chip shape of ``tests/batch/test_every_shape.py`` (non-square arrays
  and both dataflows among them), random expanded-space points, and both
  optimization presets (``all_off`` sums a layer's bounds instead of
  taking their max);
* ``Simulator.run``'s result, totals and per-layer records, equals the
  loop's field for field, types included;
* a call that fits in one block, and calls split along the layers and
  along the points, under the module's block budget and under a tiny
  one;
* a long fusable chain after a GEMM with a non-fusable vector layer in
  it, where only the segmented scan decides the cycles;
* the zero-bandwidth refusal raises the loop's error;
* repeated GEMM groups, walked once and weighted by their count: a cell
  repeated under new layer names beside near-twin cells that each differ
  in one walked field, a graph with no GEMM and one that opens with a
  GEMM, with every ``LayerTiming`` named in graph order;
* ``neurometer simulate --bounds`` prints the loop's bottleneck report.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

import repro.batch.perf as batch_perf
from repro.arch.tensor_unit import Dataflow
from repro.batch import BatchEstimator
from repro.cache import estimate_cache_disabled
from repro.config.presets import datacenter_context
from repro.dse.space import DesignPoint, SpaceAxes, full_grid
from repro.errors import MappingError
from repro.perf import simulator
from repro.perf.graph import Graph
from repro.perf.ops import (
    Activation,
    Concat,
    Conv2d,
    DepthwiseConv2d,
    Elementwise,
    GlobalPool,
    MatMul,
    Pool,
)
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import GraphSpec, Simulator, walk_graph
from repro.workloads import inception_v3, nasnet_a_large, resnet50
from tests.batch.test_every_shape import _point, _shapes, _variant
from tests.perf import walk_reference as reference
from tests.perf.test_simulator_reference import _fingerprint

OPTS = {
    "all_on": OptimizationConfig.all_on(),
    "all_off": OptimizationConfig.all_off(),
}

FIG10_BATCHES = (1, "latency-bound", 256)


@pytest.fixture(scope="module")
def graphs():
    return {
        "ResNet": resnet50(),
        "Inception": inception_v3(),
        "NASNet": nasnet_a_large(),
    }


def _assert_walks_match(spec, arch, batch, opt) -> dict:
    got = walk_graph(spec, arch, batch, opt)
    want = reference.walk_graph(spec, arch, batch, opt, np)
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        value = got[key]
        assert np.shape(value) == np.shape(expected), (spec.name, key)
        assert np.array_equal(value, expected), (spec.name, key)
    return got


@pytest.fixture
def vector_walks(monkeypatch):
    """Every walk the vector path runs, checked against the loop."""
    calls = []

    def checked(spec, arch, batch, opt):
        calls.append((spec, arch, batch, opt))
        return _assert_walks_match(spec, arch, batch, opt)

    monkeypatch.setattr(batch_perf, "walk_graph", checked)
    return calls


def _estimate(points, workloads, batches, ctx=None):
    with estimate_cache_disabled():
        return BatchEstimator(ctx or datacenter_context()).estimate_points(
            points, workloads=workloads, batches=batches
        )


def _assert_runs_match(simulator_, graph, batch):
    got = simulator_.run(graph, batch)
    want = reference.reference_run(simulator_, graph, batch)
    assert _fingerprint(got) == _fingerprint(want), (graph.name, batch)
    assert [layer.name for layer in got.layers] == [
        layer.name for layer in graph
    ]


def test_table1_at_the_fig10_batches(vector_walks, graphs):
    result = _estimate(full_grid(), list(graphs.items()), FIG10_BATCHES)
    assert result.fallback_reasons == {}
    assert len(vector_walks) == len(graphs)
    for _, _, batch, _ in vector_walks:
        assert np.shape(batch) == (9, 1)


#: The shapes with tensor units: the GEMM mapper needs them.
_MAPPED_SHAPES = [
    case for case in _shapes().values() if case[1].config.core.tu is not None
]


@pytest.mark.parametrize(
    "label, chip, ctx",
    _MAPPED_SHAPES,
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_each_chip_shape(label, chip, ctx, vector_walks, graphs):
    chips = [chip, _variant(chip)]
    points = [_point(each, serial) for serial, each in enumerate(chips, 1)]
    workloads = [("ResNet", graphs["ResNet"])]
    result = _estimate(points, workloads, (1, "latency-bound"), ctx)
    assert result.fallback_reasons == {}, label
    assert len(vector_walks) == 1
    for each in chips:
        simulator_ = Simulator(each, ctx)
        for batch in (1, 64):
            _assert_runs_match(simulator_, graphs["ResNet"], batch)


def test_the_shapes_cover_non_square_arrays_and_both_dataflows():
    tus = [chip.config.core.tu for _, chip, _ in _MAPPED_SHAPES]
    assert any(tu.rows != tu.cols for tu in tus)
    assert {tu.dataflow for tu in tus} == set(Dataflow)


def _expanded_sample(count: int, seed: int) -> list:
    axes = SpaceAxes.expanded()
    rng = random.Random(seed)
    return [
        DesignPoint(
            rng.choice(axes.x_values),
            rng.choice(axes.n_values),
            *rng.choice(axes.grid_pairs),
        )
        for _ in range(count)
    ]


def test_random_expanded_points(vector_walks, graphs):
    points = _expanded_sample(24, seed=26)
    result = _estimate(points, list(graphs.items()), FIG10_BATCHES)
    assert result.fallback_reasons == {}
    assert len(vector_walks) == len(graphs)
    ctx = datacenter_context()
    for point in points[:4]:
        simulator_ = Simulator(point.build(), ctx)
        _assert_runs_match(simulator_, graphs["Inception"], 8)


def _grid_arch(points) -> tuple:
    """The view and stacked batch the vector path walks for ``points``."""
    calls = []
    real = batch_perf.walk_graph

    def capture(spec, arch, batch, opt):
        calls.append((arch, batch))
        return real(spec, arch, batch, opt)

    batch_perf.walk_graph = capture
    try:
        _estimate(points, [("ResNet", resnet50())], FIG10_BATCHES)
    finally:
        batch_perf.walk_graph = real
    return calls[0]


@pytest.mark.parametrize("opt", sorted(OPTS))
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
def test_both_optimization_presets(opt, dataflow, graphs):
    points = full_grid()[::7] + _expanded_sample(6, seed=7)
    arch, batch = _grid_arch(points)
    arch = dataclasses.replace(arch, dataflow=dataflow)
    walked = (*graphs.values(), _repeated_cells(), _vector_only())
    for graph in walked:
        spec = GraphSpec.of(graph, OPTS[opt])
        _assert_walks_match(spec, arch, batch, OPTS[opt])
    ctx = datacenter_context()
    for point in (DesignPoint(8, 4, 4, 8), DesignPoint(128, 2, 1, 1)):
        simulator_ = Simulator(point.build(), ctx, OPTS[opt])
        simulator_.arch = dataclasses.replace(
            simulator_.arch, dataflow=dataflow
        )
        for graph in walked:
            for batch_size in (1, 256):
                _assert_runs_match(simulator_, graph, batch_size)


def _counted(monkeypatch, name):
    calls = []
    original = getattr(simulator, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator, name, counted)
    return calls


def test_a_call_that_fits_in_one_block(monkeypatch, vector_walks, graphs):
    mapped = _counted(monkeypatch, "map_gemm_dims")
    result = _estimate(full_grid()[:3], list(graphs.items()), (1,))
    assert result.fallback_reasons == {}
    assert len(vector_walks) == len(mapped) == len(graphs)


def test_a_call_split_along_layers_and_points(monkeypatch, graphs):
    """Twice the Table I grid at nine batch rows: NASNet-A's widest
    group over every point exceeds the block budget."""
    nasnet = GraphSpec.of(graphs["NASNet"], OPTS["all_on"])
    points = full_grid() * 2
    arch, batch = _grid_arch(points)
    widest = nasnet.tables.widest_group
    assert len(batch) * widest * len(points) > simulator._BLOCK_ELEMENTS
    step = simulator._BLOCK_ELEMENTS // (len(batch) * widest)
    sliced = _counted(monkeypatch, "_point_slice")
    mapped = _counted(monkeypatch, "map_gemm_dims")
    _assert_walks_match(nasnet, arch, batch, OPTS["all_on"])
    assert len(sliced) == -(-len(points) // step) > 1
    assert len(mapped) > 2 * len(sliced)


@pytest.mark.parametrize("elements", [1, 2**6, 2**9])
@pytest.mark.parametrize("opt", sorted(OPTS))
def test_tiny_block_budgets(monkeypatch, elements, opt, graphs):
    """Blocks of one group and single-point slices change no number."""
    arch, batch = _grid_arch(full_grid()[::10])
    monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", elements)
    for graph in (graphs["Inception"], _fusion_chain()):
        spec = GraphSpec.of(graph, OPTS[opt])
        _assert_walks_match(spec, arch, batch, OPTS[opt])
    simulator_ = Simulator(
        DesignPoint(32, 2, 2, 2).build(), datacenter_context(), OPTS[opt]
    )
    _assert_runs_match(simulator_, graphs["Inception"], 4)


def _fusion_chain() -> Graph:
    """Fusable chains after GEMMs, broken by non-fusable vector layers.

    Opens with vector layers before any GEMM; a long pointwise chain
    follows the first GEMM with a pool in the middle of it; a depthwise
    layer and a concat split later chains; the last GEMM ends the graph.
    """
    graph = Graph("fusion-chain", (28, 28, 32))
    graph.add("lead.relu", Activation(), ["input"])
    graph.add("lead.pool", Pool(kernel=3, stride=1))
    graph.add("conv", Conv2d(64, kernel=3))
    for index in range(12):
        graph.add(f"chain.relu{index}", Activation())
        graph.add(
            f"chain.add{index}", Elementwise(), [f"chain.relu{index}", "conv"]
        )
    graph.add("chain.pool", Pool(kernel=3, stride=1))
    for index in range(6):
        graph.add(f"tail.relu{index}", Activation())
    graph.add("pw", Conv2d(32, kernel=1))
    graph.add("pw.relu", Activation())
    graph.add("dw", DepthwiseConv2d(kernel=3))
    graph.add("dw.relu", Activation())
    graph.add("pw2", Conv2d(32, kernel=1))
    graph.add("cat", Concat(64), ["pw2", "pw"])
    graph.add("cat.relu", Activation())
    graph.add("gap", GlobalPool())
    graph.add("fc", MatMul(10))
    return graph


@pytest.mark.parametrize("opt", sorted(OPTS))
def test_long_fusable_chain_with_a_break(opt, vector_walks):
    graph = _fusion_chain()
    spec = GraphSpec.of(graph, OPTS[opt])
    tables = spec.tables
    assert len(tables.scan) >= 24
    assert len(tables.scan) < sum(layer.fusable for layer in spec.layers)
    points = full_grid()[::5]
    result = _estimate(points, [("chain", graph)], FIG10_BATCHES)
    assert result.fallback_reasons == {}
    arch, batch = _grid_arch(points)
    _assert_walks_match(spec, arch, batch, OPTS[opt])
    ctx = datacenter_context()
    for point in (DesignPoint(16, 1, 2, 2), DesignPoint(64, 4, 1, 1)):
        simulator_ = Simulator(point.build(), ctx, OPTS[opt])
        for batch_size in (1, 32):
            _assert_runs_match(simulator_, graph, batch_size)
    # On a VU-bound chip the credit covers the first adds of the chain,
    # part of one, and none of the rest: the scan's clamp is exercised.
    run = Simulator(DesignPoint(64, 4, 1, 1).build(), ctx).run(graph, 32)
    adds = {
        layer.cycles
        for layer in run.layers
        if layer.name.startswith("chain.add")
    }
    assert len(adds) >= 3


def _refusals(call) -> str:
    with pytest.raises(MappingError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize(
    "path", ["mem_read_gbps", "mem_write_gbps", "offchip_gbps", "noc_gbps"]
)
def test_zero_bandwidth_refusal(path, graphs):
    graph = graphs["ResNet"]
    opt = OPTS["all_on"]
    spec = GraphSpec.of(graph, opt)
    arch, batch = _grid_arch(full_grid()[::21])
    bandwidth = np.array(np.broadcast_to(getattr(arch, path), arch.tus.shape))
    multi = np.flatnonzero(arch.cores > 1)
    bandwidth[multi[0]] = 0.0
    broken = dataclasses.replace(arch, **{path: bandwidth})
    got = _refusals(lambda: walk_graph(spec, broken, batch, opt))
    want = _refusals(
        lambda: reference.walk_graph(spec, broken, batch, opt, np)
    )
    assert got == want == "traffic on a zero-bandwidth path"

    chip = DesignPoint(64, 2, 2, 4).build()
    simulator_ = Simulator(chip, datacenter_context())
    simulator_.arch = dataclasses.replace(simulator_.arch, **{path: 0.0})
    got = _refusals(lambda: simulator_.run(graph, 256))
    want = _refusals(lambda: reference.reference_run(simulator_, graph, 256))
    assert got == want


def test_a_zero_bandwidth_path_without_traffic_runs(graphs):
    """Single-core points have no NoC (0 GB/s) and send nothing over it."""
    chip = DesignPoint(64, 2, 1, 1).build()
    simulator_ = Simulator(chip, datacenter_context())
    assert simulator_.arch.noc_gbps == 0.0
    _assert_runs_match(simulator_, graphs["ResNet"], 16)


#: The layers of one cell, after its name.
_CELL = ("conv", "scale", "relu", "pool", "relu2")

#: Each near-twin cell: the layers it swaps in, and the walked fields in
#: which its layers' specs then differ from the repeated cell's.  A 1x1
#: pool for the pointwise scale flips ``fusable``, and with it
#: ``pays_launch``, which the flattener derives from it.
_TWINS = {
    "weightless": (
        {"conv": Conv2d(32, kernel=3, weightless=True)}, {"params_bytes"}
    ),
    "two_input": ({"scale": Elementwise()}, {"input_bytes"}),
    "pooled": (
        {"scale": Pool(kernel=1, stride=1)}, {"fusable", "pays_launch"}
    ),
}

#: The cells in graph order; ``cell*`` are the repeats.
_CELLS = (
    "cell0", "cell1", "weightless", "cell2", "two_input", "pooled", "cell3"
)


def _add_cell(graph: Graph, name: str, conv=None, scale=None) -> None:
    """A 3x3 conv, a pointwise scale and a ReLU that drain through it, a
    pool that closes the fusable run, and a ReLU after it."""
    previous = graph.output.name
    graph.add(f"{name}.conv", conv or Conv2d(32, kernel=3), [previous])
    scale = scale or Activation(ops_per_element=1)
    inputs = [f"{name}.conv"]
    if isinstance(scale, Elementwise):
        inputs.append(previous)
    graph.add(f"{name}.scale", scale, inputs)
    graph.add(f"{name}.relu", Activation())
    graph.add(f"{name}.pool", Pool(kernel=3, stride=1))
    graph.add(f"{name}.relu2", Activation())


def _repeated_cells() -> Graph:
    """A cell repeated under new layer names, beside near-twin groups.

    The graph opens with the repeated cell (its first group is a repeat
    too), and the twins of ``_TWINS`` sit between the repeats.  Then a
    space-to-depth stem (a stride-2 conv on 4 channels) and a 1x1 conv
    on 16 channels with the same GEMM dims and byte counts, each with a
    ReLU: under ``all_on`` only the stem folds, so the two groups differ
    in ``space_to_depth`` alone; under ``all_off`` they are one group.
    """
    graph = Graph("repeated-cells", (8, 8, 32))
    for name in _CELLS:
        _add_cell(graph, name, **_TWINS.get(name, ({}, None))[0])
    graph.add("narrow4", Conv2d(4, kernel=1))
    graph.add("stem", Conv2d(32, kernel=2, stride=2, same_pad=False))
    graph.add("stem.relu", Activation())
    graph.add("narrow16", Conv2d(16, kernel=1))
    graph.add("flat", Conv2d(32, kernel=1))
    graph.add("flat.relu", Activation())
    graph.add("head", Conv2d(64, kernel=1))
    graph.add("gap", GlobalPool())
    graph.add("fc", MatMul(10))
    return graph


def _vector_only() -> Graph:
    """No GEMM at all: the whole graph is one group of vector layers."""
    graph = Graph("vector-only", (16, 16, 8))
    graph.add("relu0", Activation())
    graph.add("pool0", Pool(kernel=3, stride=1))
    graph.add("relu1", Activation())
    graph.add("pool1", Pool(kernel=3, stride=1))
    graph.add("dw", DepthwiseConv2d(kernel=3))
    graph.add("add", Elementwise(), ["dw", "relu1"])
    graph.add("gap", GlobalPool())
    return graph


def _differing(a, b) -> set:
    """The walked fields in which two layer specs differ."""
    return {
        f.name
        for f in dataclasses.fields(a)
        if f.name != "name" and getattr(a, f.name) != getattr(b, f.name)
    }


@pytest.mark.parametrize("opt", sorted(OPTS))
def test_repeated_groups_are_walked_once(opt):
    spec = GraphSpec.of(_repeated_cells(), OPTS[opt])
    tables = spec.tables
    names = [layer.name for layer in spec.layers]
    row = dict(zip(names, tables.layer_index.tolist()))
    layer = dict(zip(names, spec.layers))

    def cell(name):
        return [row[f"{name}.{part}"] for part in _CELL]

    assert cell("cell0") == cell("cell1") == cell("cell2") == cell("cell3")
    conv = tables.gemm_at.tolist().index(row["cell0.conv"])
    assert tables.gemm_count[conv] == 4
    for twin, (_, fields) in _TWINS.items():
        assert cell(twin) != cell("cell0"), twin
        assert set().union(
            *(
                _differing(layer[f"{twin}.{part}"], layer[f"cell0.{part}"])
                for part in _CELL
            )
        ) == fields
    folded = opt == "all_on"
    assert _differing(layer["stem"], layer["flat"]) == (
        {"space_to_depth"} if folded else set()
    )
    assert _differing(layer["stem.relu"], layer["flat.relu"]) == set()
    assert (row["stem"] != row["flat"]) == folded
    repeats = 3 * len(_CELL) + (0 if folded else 2)
    assert tables.walked == len(spec.layers) - repeats
    assert sorted(set(tables.layer_index.tolist())) == list(
        range(tables.walked)
    )
    assert tables.gemm_count.sum() == sum(l.has_gemm for l in spec.layers)


def test_graphs_open_with_a_gemm_and_without_one():
    opens = GraphSpec.of(_repeated_cells(), OPTS["all_on"])
    assert opens.layers[0].has_gemm
    vector_only = GraphSpec.of(_vector_only(), OPTS["all_on"])
    assert not any(layer.has_gemm for layer in vector_only.layers)
    assert vector_only.tables.walked == len(vector_only.layers)
    assert len(vector_only.tables.gemm_at) == 0


def test_simulate_bound_report_is_the_loops(capsys):
    from repro.cli import main
    from repro.perf.bound_analysis import bound_report

    args = ["--workload", "nasnet", "--batch", "8", "--point", "32,2,2,2"]
    assert main(["simulate", *args, "--bounds", "12"]) == 0
    out = capsys.readouterr().out
    chip = DesignPoint(32, 2, 2, 2).build()
    simulator_ = Simulator(chip, datacenter_context())
    want = reference.reference_run(simulator_, nasnet_a_large(), 8)
    assert out.endswith("\n" + bound_report(want, top=12) + "\n")
