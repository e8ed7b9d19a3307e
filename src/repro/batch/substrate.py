"""Point-independent model state hoisted out of the vectorized hot loop.

A design point's chip configuration splits in two (:func:`split_config`):
its *shape*, the configuration with its per-point fields set to 1, and
its per-point values (:class:`GridAxes`): TU rows and cols, TUs per
core, VU lanes, the Mem slice's capacity and block, and the core grid.
The preset factories (:mod:`repro.config.presets`) own how those values
scale with ``(X, N, T_x, T_y)`` (Sec. III-A, Fig. 6); the batch layer
reads them from each built configuration.

Everything else is fixed for a ``(ModelContext, shape)`` pair.
:class:`TechSubstrate` evaluates the fixed blocks (instruction fetch,
scalar unit, memory controller, PCIe, ICI, DMA) exactly once, through
their own ``estimate()`` methods, and keeps the shape: the kernels in
:mod:`repro.batch.kernels` pass its fields (datatypes, FIFO depth, VU
sizing, Mem cell, NoC bisection, ...) as scalars to the same
``repro.arch`` closed forms the scalar classes call, with the per-point
values as arrays.

The kernels model the shapes of the two preset templates
(:data:`MODELED_SHAPES`): the int8 inference chip of Table I and the
bf16/fp32 TPU-v2-class training chip.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.chip import Chip, ChipConfig
from repro.arch.component import Estimate, ModelContext
from repro.arch.vector_unit import VectorUnitConfig
from repro.config.presets import (
    datacenter_design_point,
    datacenter_training_point,
)
from repro.tech.node import TechNode


class GridAxes(NamedTuple):
    """The per-point values of a configuration, or of a grid of them.

    :func:`split_config` reads one configuration's values as ints;
    :meth:`stack` turns a list of them into parallel float64 arrays, the
    form ``estimate_grid`` and ``simulate_workloads`` take.
    """

    tu_rows: Any
    tu_cols: Any
    tensor_units: Any
    #: ``CoreConfig.vector_lanes``: the VU lanes and VReg width.
    lanes: Any
    mem_capacity_bytes: Any
    mem_block_bytes: Any
    cores_x: Any
    cores_y: Any

    @classmethod
    def stack(cls, rows: Sequence["GridAxes"]) -> "GridAxes":
        """Per-point values as float64 arrays, one element per row."""
        return cls(*np.array(tuple(zip(*rows)), dtype=np.float64))

    @property
    def cores(self):
        return self.cores_x * self.cores_y


def shape_of(config: ChipConfig) -> ChipConfig:
    """``config`` with every per-point field (see :class:`GridAxes`) 1."""
    core = config.core
    return replace(
        config,
        core=replace(
            core,
            tu=None if core.tu is None else replace(core.tu, rows=1, cols=1),
            tensor_units=1,
            vu=None if core.vu is None else replace(core.vu, lanes=1),
            mem=replace(core.mem, capacity_bytes=1, block_bytes=1),
        ),
        cores_x=1,
        cores_y=1,
    )


#: The shapes the kernels evaluate: those of the two preset templates.
MODELED_SHAPES: Tuple[ChipConfig, ...] = tuple(
    shape_of(build(1, 1, 1, 1).config)
    for build in (datacenter_design_point, datacenter_training_point)
)


def split_config(
    config: ChipConfig,
) -> Tuple[Optional[ChipConfig], Optional[GridAxes]]:
    """``(shape, values)`` of a configuration the kernels model.

    ``shape`` is the :data:`MODELED_SHAPES` entry itself, so callers can
    group points by identity; ``(None, None)`` when the configuration's
    shape is not modeled.  The check compares frozen config dataclasses,
    so it is exact: a configuration differing from a modeled shape in
    any field but the per-point ones, down to a single coefficient, is
    not modeled.
    """
    shape = shape_of(config)
    for modeled in MODELED_SHAPES:
        if shape == modeled:
            core = config.core
            return modeled, GridAxes(
                core.tu.rows,
                core.tu.cols,
                core.tensor_units,
                core.vector_lanes,
                core.mem.capacity_bytes,
                core.mem.block_bytes,
                config.cores_x,
                config.cores_y,
            )
    return None, None


@dataclass(frozen=True)
class BlockScalars:
    """Flattened rollup of one point-independent block's estimate."""

    area_mm2: float
    dynamic_w: float
    leakage_w: float
    cycle_time_ns: float

    @classmethod
    def from_estimate(cls, est: Estimate) -> "BlockScalars":
        return cls(
            area_mm2=est.area_mm2,
            dynamic_w=est.dynamic_w,
            leakage_w=est.leakage_w,
            cycle_time_ns=est.cycle_time_ns,
        )


@dataclass(frozen=True)
class TechSubstrate:
    """Everything the batch kernels need that does not vary per point."""

    ctx: ModelContext
    tech: TechNode
    freq_ghz: float
    cycle_ns: float
    #: name -> rollup for IFU / scalar unit / MC / PCIe / ICI / DMA.
    fixed_blocks: Dict[str, BlockScalars]
    #: the shape; kernels read the point-independent knobs (cell
    #: dtype/control gates, FIFO depth, NoC bisection, ...) from here.
    template_config: ChipConfig
    #: the VU configuration (dtype / SFU gates / pipeline depth; the lane
    #: count is each point's own).
    template_vu_config: VectorUnitConfig
    template_lsu_queue_entries: int
    #: scalar-unit energy per active cycle (``None`` without an SU) and
    #: memory-controller traffic coefficients, for runtime power.
    su_energy_pj: Optional[float]
    mc_energy_per_byte_pj: float
    mc_device_power_w: float

    @property
    def chip_fixed_blocks(self) -> Tuple[BlockScalars, ...]:
        """Chip-level fixed blocks in `Chip.estimate` child order."""
        return tuple(
            self.fixed_blocks[name]
            for name in _CHIP_FIXED_NAMES
            if name in self.fixed_blocks
        )

    @classmethod
    def build(cls, ctx: ModelContext, shape: ChipConfig) -> "TechSubstrate":
        """Hoist the fixed-block estimates for ``(ctx, shape)``.

        The blocks harvested from a chip of the shape (IFU, scalar unit,
        memory controller, PCIe, ICI, DMA) depend on no per-point value,
        so they are those of every point of the shape.
        """
        template = Chip(shape)
        core = template.core
        su_energy_pj = None
        if core.scalar_unit is not None:
            su_energy_pj = core.scalar_unit.energy_per_active_cycle_pj(ctx)
        fixed = {
            "ifu": BlockScalars.from_estimate(core.ifu.estimate(ctx)),
            "scalar_unit": BlockScalars.from_estimate(
                core.scalar_unit.estimate(ctx)
            ),
        }
        mc = template.memory_controller()
        mc_energy_per_byte_pj = 0.0
        mc_device_power_w = 0.0
        if mc is not None:
            fixed["memory_controller"] = BlockScalars.from_estimate(
                mc.estimate(ctx)
            )
            mc_energy_per_byte_pj = mc.energy_per_byte_pj()
            mc_device_power_w = mc.device_power_w()
        if shape.pcie is not None:
            fixed["pcie"] = BlockScalars.from_estimate(
                shape.pcie.estimate(ctx)
            )
        if shape.ici is not None:
            fixed["ici"] = BlockScalars.from_estimate(shape.ici.estimate(ctx))
        if shape.dma is not None:
            fixed["dma"] = BlockScalars.from_estimate(shape.dma.estimate(ctx))
        return cls(
            ctx=ctx,
            tech=ctx.tech,
            freq_ghz=ctx.freq_ghz,
            cycle_ns=ctx.cycle_ns,
            fixed_blocks=fixed,
            template_config=shape,
            template_vu_config=core.vector_unit.config,
            template_lsu_queue_entries=core.lsu.queue_entries,
            su_energy_pj=su_energy_pj,
            mc_energy_per_byte_pj=mc_energy_per_byte_pj,
            mc_device_power_w=mc_device_power_w,
        )


#: Chip-level fixed-block order, mirroring `Chip.estimate` (the ICI entry
#: exists only for shapes that configure one, so the float accumulation
#: order matches the scalar walk for both cases).
_CHIP_FIXED_NAMES: Tuple[str, ...] = (
    "memory_controller",
    "pcie",
    "ici",
    "dma",
)

#: Substrates kept; a daemon sees a new context with every new clock.
MAX_SUBSTRATES = 32

#: ``(ctx, shape)`` -> substrate, least recently used first.
_SUBSTRATES: Dict[Tuple[ModelContext, ChipConfig], TechSubstrate] = {}
_SUBSTRATES_LOCK = threading.Lock()


def substrate_for(ctx: ModelContext, shape: ChipConfig) -> TechSubstrate:
    """Build (or reuse) the substrate for ``(ctx, shape)``.

    Repeated sweeps in one process (CLI, benchmarks, tests, the daemon)
    share the hoisted state; past :data:`MAX_SUBSTRATES` entries the
    least recently used one is dropped.
    """
    key = (ctx, shape)
    with _SUBSTRATES_LOCK:
        substrate = _SUBSTRATES.pop(key, None)
        if substrate is None:
            substrate = TechSubstrate.build(ctx, shape)
        _SUBSTRATES[key] = substrate
        if len(_SUBSTRATES) > MAX_SUBSTRATES:
            del _SUBSTRATES[next(iter(_SUBSTRATES))]
        return substrate
