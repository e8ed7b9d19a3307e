"""Training-preset (bf16) scalar/vector equivalence on the full grid.

The vector backend runs the training family's bf16/fp16 MAC and adder
curves, so a training-preset sweep must vectorize with *zero* fallbacks
and reproduce the scalar path bit for bit on the entire Table I grid.
"""

from __future__ import annotations

from repro.batch import BatchEstimator
from repro.config.presets import datacenter_training_point, training_context
from repro.dse.space import TU_LENGTHS, TUS_PER_CORE, DesignPoint, _grids
from repro.dse.sweep import evaluate_point

_METRICS = ("area_mm2", "tdp_w", "peak_tops")


class TrainingPoint(DesignPoint):
    """A grid point building the bf16 training preset."""

    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


TRAINING_GRID = [
    TrainingPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]


def test_full_training_grid_vectorizes_without_fallback():
    ctx = training_context()
    batch = BatchEstimator(ctx).estimate_points(TRAINING_GRID)
    assert batch.fallback_reasons == {}
    assert batch.vectorized_count == len(TRAINING_GRID)


def test_full_training_grid_is_bit_exact_with_scalar():
    ctx = training_context()
    batch = BatchEstimator(ctx).estimate_points(TRAINING_GRID)
    for point, summary in zip(TRAINING_GRID, batch.summaries):
        assert summary is not None, point
        reference = evaluate_point(point, (), (), ctx, latency_slo_ms=None)
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )


def test_training_workload_sim_is_bit_exact_with_scalar():
    from repro.workloads import mobilenet_v2, resnet50

    ctx = training_context()
    workloads = [("ResNet", resnet50()), ("MobileNet", mobilenet_v2())]
    subset = [
        TrainingPoint(4, 1, 1, 1),
        TrainingPoint(16, 2, 2, 2),
        TrainingPoint(64, 2, 2, 4),
        TrainingPoint(256, 1, 4, 4),
    ]
    batch = BatchEstimator(ctx).estimate_points(
        subset, workloads=workloads, batches=(1, "latency-bound")
    )
    assert batch.fallback_reasons == {}
    for point, summary in zip(subset, batch.summaries):
        reference = evaluate_point(
            point, workloads, [1, "latency-bound"], ctx
        )
        assert len(summary.outcomes) == len(reference.outcomes)
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.workload == want.workload
            assert got.batch == want.batch
            assert got.regime == want.regime
            assert got.achieved_tops == want.achieved_tops
            assert got.utilization == want.utilization
            assert got.runtime_power_w == want.runtime_power_w
            assert got.latency_ms == want.latency_ms
