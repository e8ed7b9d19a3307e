"""The shared cycle simulator against the scalar loop it replaced.

``Simulator.run`` and ``map_gemm`` run the mapper and layer walk that the
vector backend runs, over Python numbers instead of arrays.  These tests
replay them against :mod:`tests.perf.reference_simulator` — the former
hand-written scalar loop and mappers — bit for bit: every float by
``float.hex`` and every int as an ``int``.  The reference mappers tile by
``tu_rows`` alone, so every chip here has square tensor units.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.arch.tensor_unit import Dataflow
from repro.config.presets import (
    datacenter_context,
    tpu_v1,
    tpu_v1_context,
    tpu_v2,
    tpu_v2_context,
)
from repro.dse.space import DesignPoint, SpaceAxes
from repro.perf.mapping import ArchView, map_gemm
from repro.perf.ops import Gemm
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import Simulator
from repro.workloads import inception_v3, nasnet_a_large, resnet50

from tests.perf import reference_simulator as reference

OPTS = {
    "all_on": OptimizationConfig.all_on(),
    "all_off": OptimizationConfig.all_off(),
}

#: Fixed batches, then the latency-bound search.
REGIMES = (1, 3, 8, 64, 256, "latency-bound")

#: Table I points spanning every TU length, unit count and grid shape.
TABLE1_SAMPLE = (
    DesignPoint(4, 1, 1, 1),
    DesignPoint(8, 4, 4, 8),
    DesignPoint(16, 2, 2, 4),
    DesignPoint(32, 1, 8, 8),
    DesignPoint(64, 2, 2, 4),
    DesignPoint(128, 4, 1, 2),
    DesignPoint(256, 1, 1, 1),
)


def _expanded_sample(count: int = 25, seed: int = 18) -> tuple:
    """Expanded-space points whose TU length is not a power of two."""
    axes = SpaceAxes.expanded()
    lengths = [x for x in axes.x_values if x & (x - 1)]
    rng = random.Random(seed)
    return tuple(
        DesignPoint(
            rng.choice(lengths),
            rng.choice(axes.n_values),
            *rng.choice(axes.grid_pairs),
        )
        for _ in range(count)
    )


EXPANDED_SAMPLE = _expanded_sample()


@pytest.fixture(scope="module")
def graphs():
    return {
        "ResNet-50": resnet50(),
        "Inception-v3": inception_v3(),
        "NASNet-A": nasnet_a_large(),
    }


def _fingerprint(value):
    """A structure that compares equal only when ``value`` is bit-equal.

    Floats compare by ``float.hex`` and every leaf carries its exact
    type, so an ``int`` that became a ``float`` (or a NumPy scalar) is a
    mismatch even where the values are equal.
    """
    kind = type(value)
    if kind is float:
        return (kind, value.hex())
    if kind in (int, bool, str, Dataflow) or value is None:
        return (kind, value)
    if dataclasses.is_dataclass(value):
        return (
            kind,
            tuple(
                (field.name, _fingerprint(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if kind is tuple:
        return (kind, tuple(_fingerprint(item) for item in value))
    raise TypeError(f"no fingerprint for {kind.__name__}")


def _assert_runs_match(chip, ctx, opt, graphs, regimes, arch=None):
    simulator = Simulator(chip, ctx, opt)
    if arch is not None:
        simulator.arch = arch
    expected_sim = reference.ReferenceSimulator(
        chip, ctx, opt, arch=simulator.arch
    )
    for name, graph in graphs.items():
        for regime in regimes:
            if regime == "latency-bound":
                got = simulator.latency_limited_run(graph)
                expected = expected_sim.latency_limited_run(graph)
            else:
                got = simulator.run(graph, regime)
                expected = expected_sim.run(graph, regime)
            assert _fingerprint(got) == _fingerprint(expected), (
                name,
                regime,
            )


@pytest.mark.parametrize("opt", sorted(OPTS))
@pytest.mark.parametrize(
    "point", TABLE1_SAMPLE, ids=[p.label() for p in TABLE1_SAMPLE]
)
def test_table1_points_match_the_reference(point, opt, graphs):
    _assert_runs_match(
        point.build(), datacenter_context(), OPTS[opt], graphs, REGIMES
    )


@pytest.mark.parametrize("opt", sorted(OPTS))
@pytest.mark.parametrize(
    "build, context",
    [(tpu_v1, tpu_v1_context), (tpu_v2, tpu_v2_context)],
    ids=["tpu_v1", "tpu_v2"],
)
def test_tpu_presets_match_the_reference(build, context, opt, graphs):
    _assert_runs_match(build(), context(), OPTS[opt], graphs, REGIMES)


@pytest.mark.parametrize("opt", sorted(OPTS))
@pytest.mark.parametrize(
    "point",
    [DesignPoint(8, 4, 4, 8), DesignPoint(64, 2, 2, 4)],
    ids=["wimpy", "brawny"],
)
def test_output_stationary_matches_the_reference(point, opt, graphs):
    chip = point.build()
    ctx = datacenter_context()
    arch = dataclasses.replace(
        ArchView.of(chip, ctx), dataflow=Dataflow.OUTPUT_STATIONARY
    )
    _assert_runs_match(
        chip, ctx, OPTS[opt], graphs, (1, 8, 256, "latency-bound"), arch
    )


@pytest.mark.parametrize(
    "point", EXPANDED_SAMPLE, ids=[p.label() for p in EXPANDED_SAMPLE]
)
def test_expanded_space_points_match_the_reference(point, graphs):
    assert point.x & (point.x - 1)
    _assert_runs_match(
        point.build(),
        datacenter_context(),
        OPTS["all_on"],
        {"ResNet-50": graphs["ResNet-50"]},
        (1, 64),
    )


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
@pytest.mark.parametrize("opt", sorted(OPTS))
def test_random_gemms_match_the_reference_mappers(dataflow, opt):
    ctx = datacenter_context()
    rng = random.Random(f"{dataflow.name}-{opt}")
    points = TABLE1_SAMPLE + EXPANDED_SAMPLE[:5]
    archs = [
        dataclasses.replace(ArchView.of(p.build(), ctx), dataflow=dataflow)
        for p in points
    ]
    for _ in range(400):
        gemm = Gemm(
            m=rng.randint(1, 1 << rng.randint(0, 20)),
            k=rng.randint(1, 1 << rng.randint(0, 14)),
            n=rng.randint(1, 1 << rng.randint(0, 14)),
        )
        arch = rng.choice(archs)
        got = map_gemm(gemm, arch, OPTS[opt])
        expected = reference.map_gemm(gemm, arch, OPTS[opt])
        assert _fingerprint(got) == _fingerprint(expected), (gemm, arch)
