"""Every chip shape vectorizes, bit for bit against the scalar path.

The batch kernels run the scalar classes' own core and chip rollups
(``core_rollup``, ``chip_rollup``) over arrays, so
a point of any shape — the validation chips, the presets, and every
custom chip of the architecture oracle — takes the vector path and
gives the scalar path's numbers exactly.  Points the model rejects
after their build go back to the scalar path, which raises the
authentic error: the ``auto`` record equals the ``scalar`` one.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby

import pytest

from repro.arch.chip import Chip, shape_of
from repro.arch.memory import MemCellKind
from repro.arch.reduction_tree import ReductionTreeConfig
from repro.batch import BatchEstimator
from repro.batch.estimator import (
    FALLBACK_REASONS,
    MODEL_REJECTED,
    SRAM_INFEASIBLE,
)
from repro.cache import estimate_cache_disabled
from repro.config.presets import datacenter_context, datacenter_design_point
from repro.dse.engine import run_sweep
from repro.dse.space import DesignPoint
from repro.dse.sweep import evaluate_point
from repro.errors import NeuroMeterError
from repro.workloads import resnet50
from tests.arch.test_oracle import chip_cases

_METRICS = ("area_mm2", "tdp_w", "peak_tops")
_BATCHES = (1, "latency-bound")


def _point(chip: Chip, serial: int) -> DesignPoint:
    """A design point whose ``build`` returns ``chip``."""

    class ChipPoint(DesignPoint):
        def build(self):
            return chip

    return ChipPoint(1, 1, 1, serial)


def _variant(chip: Chip) -> Chip:
    """``chip`` with other per-point values: same shape, new numbers."""
    config = chip.config
    core = config.core
    tu = core.tu
    changes = dict(
        mem=replace(core.mem, capacity_bytes=core.mem.capacity_bytes // 2)
    )
    if tu is not None:
        changes.update(
            tu=replace(tu, rows=tu.rows + 8, cols=tu.cols + 4),
            tensor_units=core.tensor_units + 1,
        )
    if core.vu is not None:
        changes["vu"] = replace(core.vu, lanes=core.vu.lanes + 16)
    return Chip(
        replace(
            config,
            core=replace(core, **changes),
            cores_x=config.cores_x + 1,
        )
    )


def test_every_oracle_chip_vectorizes_bit_exact():
    cases = chip_cases()
    assert len(cases) == 87
    with estimate_cache_disabled():
        for _, group in groupby(cases, key=lambda case: case[2]):
            group = list(group)
            ctx = group[0][2]
            points = [
                _point(chip, serial)
                for serial, (_, chip, _) in enumerate(group, start=1)
            ]
            batch = BatchEstimator(ctx).estimate_points(points)
            assert batch.fallback_reasons == {}, [
                group[index][0] for index in batch.fallback_reasons
            ]
            for (label, chip, _), summary in zip(group, batch.summaries):
                estimate = chip.estimate(ctx)
                assert summary.area_mm2 == estimate.area_mm2, label
                assert summary.tdp_w == chip.tdp_w(ctx), label
                assert summary.peak_tops == chip.peak_tops(ctx), label


def _shapes() -> dict:
    """Shape -> (label, chip, ctx) of its first oracle case."""
    shapes: dict = {}
    for case in chip_cases():
        shapes.setdefault(shape_of(case[1].config), case)
    return shapes


def test_oracle_chips_have_twenty_shapes():
    assert len(_shapes()) == 20


@pytest.mark.parametrize(
    "label, chip, ctx",
    list(_shapes().values()),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_each_shape_simulates_like_the_scalar_path(label, chip, ctx):
    """Two points of the shape in one call, with ResNet-50 outcomes."""
    chips = [chip, _variant(chip)]
    assert shape_of(chips[0].config) == shape_of(chips[1].config)
    points = [_point(each, serial) for serial, each in enumerate(chips, 1)]
    workloads = [("ResNet", resnet50())]
    with estimate_cache_disabled():
        batch = BatchEstimator(ctx).estimate_points(
            points, workloads=workloads, batches=_BATCHES
        )
    for index, point in enumerate(points):
        summary = batch.summaries[index]
        try:
            reference = evaluate_point(point, workloads, list(_BATCHES), ctx)
        except NeuroMeterError:
            # A core without tensor units cannot run the GEMM mapper.
            assert point.build().config.core.tu is None, label
            assert summary is None, label
            assert batch.fallback_reasons[index] == MODEL_REJECTED, label
            continue
        assert index not in batch.fallback_reasons, label
        for name in _METRICS:
            assert getattr(summary, name) == getattr(reference, name), (
                label,
                index,
                name,
            )
        assert len(summary.outcomes) == len(reference.outcomes), label
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.batch == want.batch, label
            assert got.regime == want.regime, label
            assert got.achieved_tops == want.achieved_tops, label
            assert got.utilization == want.utilization, label
            assert got.runtime_power_w == want.runtime_power_w, label
            assert got.latency_ms == want.latency_ms, label


# -- points the model rejects after their build -------------------------------


class InfeasibleMemPoint(DesignPoint):
    """A Table I point whose Mem must read far beyond any organization."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        mem = replace(core.mem, read_bandwidth_gbps=1e9)
        return Chip(replace(chip.config, core=replace(core, mem=mem)))


class DffMemPoint(DesignPoint):
    """A Table I point whose MiB-sized Mem is built from flip-flops."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        mem = replace(core.mem, cell=MemCellKind.DFF)
        return Chip(replace(chip.config, core=replace(core, mem=mem)))


class DeepBankedPoint(DesignPoint):
    """A Table I point whose Mem asks for more banks than it has blocks."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        blocks = core.mem.capacity_bytes // core.mem.block_bytes
        mem = replace(core.mem, min_banks=blocks + 1)
        return Chip(replace(chip.config, core=replace(core, mem=mem)))


class DffScratchPoint(DesignPoint):
    """A Table I point with a 128 KiB DFF scratch beside its Mem."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = chip.config.core
        scratch = replace(
            core.mem, capacity_bytes=128 * 1024, cell=MemCellKind.DFF
        )
        extra = (("dff scratch", scratch),)
        core = replace(core, extra_memories=extra)
        return Chip(replace(chip.config, core=core))


class ReductionTreePoint(DesignPoint):
    """A Table I point whose core has reduction trees, no tensor units."""

    def build(self):
        chip = datacenter_design_point(self.x, self.n, self.tx, self.ty)
        core = replace(
            chip.config.core,
            tu=None,
            rt=ReductionTreeConfig(inputs=64),
            reduction_trees=2,
        )
        return Chip(replace(chip.config, core=core))


@pytest.mark.parametrize(
    "point, reason",
    [
        (InfeasibleMemPoint(16, 1, 2, 2), SRAM_INFEASIBLE),
        (DffMemPoint(16, 1, 2, 2), MODEL_REJECTED),
        (ReductionTreePoint(16, 1, 2, 2), MODEL_REJECTED),
        (DeepBankedPoint(16, 1, 2, 2), SRAM_INFEASIBLE),
        (DffScratchPoint(16, 1, 2, 2), MODEL_REJECTED),
    ],
    ids=[
        "sram-infeasible",
        "dff-above-64-kib",
        "no-tensor-units",
        "min-banks-beyond-capacity",
        "dff-extra-memory",
    ],
)
def test_refused_point_falls_back_to_the_scalar_record(point, reason):
    ctx = datacenter_context()
    workloads = [("ResNet", resnet50())]
    batch = BatchEstimator(ctx).estimate_points(
        [point], workloads=workloads, batches=[1]
    )
    assert batch.fallback_reasons == {0: reason}
    assert reason in FALLBACK_REASONS

    records = {
        backend: run_sweep([point], workloads, [1], ctx, backend=backend)
        .records[0]
        for backend in ("auto", "scalar")
    }
    auto, scalar = records["auto"], records["scalar"]
    assert auto.fallback == reason
    assert scalar.fallback is None
    assert auto.status == scalar.status
    assert scalar.failure is not None
    assert auto.failure.error_type == scalar.failure.error_type
    assert auto.failure.message == scalar.failure.message
