"""Property-based scalar/vector equivalence on random design subsets.

Hypothesis draws arbitrary subsets (with duplicates and shuffled order)
of valid Table I design points and asserts the vector backend reproduces
the scalar backend within the 1e-9 acceptance tolerance, point for point,
in input order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchEstimator
from repro.config.presets import datacenter_context
from repro.dse.space import TU_LENGTHS, TUS_PER_CORE, DesignPoint, _grids
from repro.dse.sweep import evaluate_point
from repro.errors import OptimizationError

RTOL = 1e-9

_GRID = [
    DesignPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]

_CTX = datacenter_context()

#: Scalar references computed lazily once per point across examples.
_SCALAR_CACHE: dict = {}


def _scalar(point: DesignPoint):
    if point not in _SCALAR_CACHE:
        try:
            _SCALAR_CACHE[point] = evaluate_point(
                point, (), (), _CTX, latency_slo_ms=None
            )
        except OptimizationError:
            _SCALAR_CACHE[point] = None
    return _SCALAR_CACHE[point]


from repro.config.presets import datacenter_training_point
from repro.workloads import mobilenet_v2


class _TrainingPoint(DesignPoint):
    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


_MIXED_GRID = _GRID + [
    _TrainingPoint(p.x, p.n, p.tx, p.ty) for p in _GRID
]

_WORKLOADS = [("MobileNet", mobilenet_v2())]

#: Scalar workload-sim references, keyed by (type, coords) because the
#: journal/base-class equality rules make subclasses compare unequal.
_SIM_CACHE: dict = {}


def _scalar_sim(point: DesignPoint):
    key = (type(point).__name__, point.x, point.n, point.tx, point.ty)
    if key not in _SIM_CACHE:
        try:
            _SIM_CACHE[key] = evaluate_point(point, _WORKLOADS, [1], _CTX)
        except OptimizationError:
            _SIM_CACHE[key] = None
    return _SIM_CACHE[key]


@settings(max_examples=20, deadline=None)
@given(
    points=st.lists(
        st.sampled_from(_GRID), min_size=1, max_size=8
    )
)
def test_random_subsets_match_scalar(points):
    batch = BatchEstimator(_CTX).estimate_points(points)
    assert len(batch.summaries) == len(points)
    for point, summary in zip(points, batch.summaries):
        reference = _scalar(point)
        if reference is None:
            assert summary is None  # infeasible in both paths
            continue
        assert summary is not None
        for name in ("area_mm2", "tdp_w", "peak_tops"):
            got = getattr(summary, name)
            want = getattr(reference, name)
            assert abs(got - want) <= RTOL * max(
                abs(got), abs(want), 1e-300
            ), (point, name)


@settings(max_examples=10, deadline=None)
@given(
    points=st.lists(
        st.sampled_from(_MIXED_GRID), min_size=1, max_size=5
    )
)
def test_random_mixed_family_subsets_simulate_identically(points):
    """Mixed datacenter/training subsets with a workload stay bit-exact."""
    batch = BatchEstimator(_CTX).estimate_points(
        points, workloads=_WORKLOADS, batches=(1,)
    )
    assert len(batch.summaries) == len(points)
    assert batch.fallback_reasons == {}
    for point, summary in zip(points, batch.summaries):
        reference = _scalar_sim(point)
        if reference is None:
            assert summary is None
            continue
        assert summary is not None
        assert summary.area_mm2 == reference.area_mm2
        assert summary.tdp_w == reference.tdp_w
        assert summary.peak_tops == reference.peak_tops
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.workload == want.workload
            assert got.batch == want.batch
            assert got.regime == want.regime
            assert got.achieved_tops == want.achieved_tops
            assert got.utilization == want.utilization
            assert got.runtime_power_w == want.runtime_power_w
            assert got.latency_ms == want.latency_ms
