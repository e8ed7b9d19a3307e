"""Core assembly: IFU + LSU + EXU (TUs, RTs, VU, VReg, CDB) + SU + Mem.

This module implements NeuroMeter's dependent-parameter auto-scaling
(Sec. III-A, Fig. 6): given the TU length ``X`` and TU count ``N``, the
core automatically sizes the VU lane count (= X), the VReg width, issue
width and port count (2R + 1W per functional unit), the Mem bandwidth
targets (enough to stream operands to every TU), and the CDB width.

The rules and the rollup are written once, over a configuration and its
per-point values (:class:`GridAxes`): numbers for one core, arrays for the
batch kernels' grids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from repro.arch.cdb import CentralDataBus
from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.arch.frontend import InstructionFetchUnit, LoadStoreUnit
from repro.arch.memory import (
    OnChipMemory,
    OnChipMemoryConfig,
    mem_bandwidth_targets_gbps,
)
from repro.arch.reduction_tree import ReductionTree, ReductionTreeConfig
from repro.arch.scalar_unit import ScalarUnit
from repro.arch.tensor_unit import TensorUnit, TensorUnitConfig
from repro.arch.vector_unit import VectorUnit, VectorUnitConfig
from repro.arch.vreg import VectorRegisterFile, VRegConfig
from repro.errors import ConfigurationError
from repro.units import tops


class GridAxes(NamedTuple):
    """The per-point values of a chip configuration, or of a grid of them:
    the fields its shape sets to 1 (:func:`repro.arch.chip.shape_of`).

    Python numbers for one chip (:meth:`of`), parallel float64 arrays for
    a grid (:meth:`stack`); the configuration supplies every other field.
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
    def of(cls, core: "CoreConfig", cores_x=1, cores_y=1) -> "GridAxes":
        """The values of ``core`` on a ``cores_x`` x ``cores_y`` grid."""
        rows, cols = (core.tu.rows, core.tu.cols) if core.tu else (1, 1)
        mem = core.mem
        return cls(
            rows,
            cols,
            core.tensor_units,
            core.vector_lanes,
            mem.capacity_bytes,
            mem.block_bytes,
            cores_x,
            cores_y,
        )

    @classmethod
    def stack(cls, rows: Sequence["GridAxes"]) -> "GridAxes":
        """Per-point values as float64 arrays, one element per row."""
        return cls(*np.array(tuple(zip(*rows)), dtype=np.float64))

    @property
    def cores(self):
        return self.cores_x * self.cores_y


# -- the rules (per-point values broadcast) -----------------------------------


def core_operand_bytes(config: "CoreConfig", tensor_units, tu_rows):
    """Input operand stream the Mem must sustain at full compute (>= 1)."""
    total = 0
    if config.tu is not None:
        bits = config.tu.cell.input_dtype.bits
        total = total + tensor_units * tu_rows * bits // 8
    if config.rt is not None:
        bits = config.rt.input_dtype.bits
        total = total + config.reduction_trees * config.rt.inputs * bits // 8
    if isinstance(total, np.ndarray):
        return np.maximum(total, 1)
    return max(total, 1)


def core_functional_units(config: "CoreConfig", tensor_units):
    """Units attached to the VReg (TUs + RTs + the VU)."""
    units = 1  # the VU
    if config.tu is not None:
        units = units + tensor_units
    if config.rt is not None:
        units = units + config.reduction_trees
    return units


def core_macs(config: "CoreConfig", tensor_units, tu_rows, tu_cols):
    """Peak MAC throughput of one core."""
    macs = 0
    if config.tu is not None:
        macs = macs + tensor_units * (tu_rows * tu_cols)
    if config.rt is not None:
        macs = macs + config.reduction_trees * config.rt.macs
    return macs


def cdb_width_bits(config: "CoreConfig", tu_rows, lanes):
    """CDB width: one TU-wide operand vector in each direction.

    The bus matches the widest *systolic* interface, not the VU lane
    count — a 1024-lane VPU reads the VReg locally, it does not stream
    over the CDB every cycle.
    """
    if config.tu is not None:
        return 2 * tu_rows * config.tu.cell.input_dtype.bits
    if config.rt is not None:
        return 2 * config.rt.inputs * config.rt.input_dtype.bits
    return 2 * lanes * 32


@dataclass(frozen=True)
class CoreConfig:
    """One accelerator core.

    Attributes:
        tu: Tensor-unit configuration (shared by all TUs in the core);
            ``None`` for TU-less (reduction-tree or vector-only) cores.
        tensor_units: Number of identical TUs (``N`` in the design tuple).
        rt: Optional reduction-tree configuration.
        reduction_trees: Number of identical RTs.
        vu: Vector unit; ``None`` auto-scales lanes to the TU length.
        mem: On-chip memory slice owned by this core; bandwidth targets of
            0 are auto-filled from the compute units' operand demand.
        extra_memories: Additional named memory structures beyond the main
            Mem (e.g. TPU-v1's accumulator buffer and weight FIFO), as
            ``(name, config)`` pairs.
        vreg_shared_ports: Share one VReg port group across all TUs.
        include_scalar_unit: Whether the core carries an SU for control.
    """

    tu: Optional[TensorUnitConfig]
    tensor_units: int = 1
    rt: Optional[ReductionTreeConfig] = None
    reduction_trees: int = 0
    vu: Optional[VectorUnitConfig] = None
    mem: OnChipMemoryConfig = field(
        default_factory=lambda: OnChipMemoryConfig(
            capacity_bytes=1 << 20, block_bytes=64
        )
    )
    extra_memories: tuple[tuple[str, OnChipMemoryConfig], ...] = ()
    vreg_shared_ports: bool = False
    include_scalar_unit: bool = True
    scalar_unit_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tu is None and self.rt is None:
            raise ConfigurationError("a core needs at least one compute unit")
        if self.tu is not None and self.tensor_units < 1:
            raise ConfigurationError("tensor_units must be >= 1 when tu set")
        if self.rt is not None and self.reduction_trees < 1:
            raise ConfigurationError(
                "reduction_trees must be >= 1 when rt set"
            )

    # -- dependent parameters (Fig. 6 auto-scaling) ---------------------------

    @property
    def vector_lanes(self) -> int:
        """VU lanes / VReg vector width, auto-matched to the TU length."""
        if self.vu is not None:
            return self.vu.lanes
        if self.tu is not None:
            return self.tu.rows
        assert self.rt is not None
        return max(16, self.rt.inputs // 16)

    @property
    def vector_unit_config(self) -> VectorUnitConfig:
        """The VU: the configured one, or a default one of auto lanes."""
        return self.vu or VectorUnitConfig(lanes=self.vector_lanes)

    @property
    def functional_units(self) -> int:
        """Units attached to the VReg (TUs + RTs + the VU)."""
        return core_functional_units(self, self.tensor_units)

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput of the core."""
        tu = self.tu
        rows, cols = (tu.rows, tu.cols) if tu else (0, 0)
        return core_macs(self, self.tensor_units, rows, cols)

    def vreg_config(self) -> VRegConfig:
        """The auto-scaled VReg."""
        return VRegConfig(
            vector_lanes=self.vector_lanes,
            attached_units=self.functional_units,
            shared_ports=self.vreg_shared_ports,
        )

    def operand_bytes_per_cycle(self) -> int:
        """Input operand stream the Mem must sustain at full compute."""
        rows = self.tu.rows if self.tu else 0
        return core_operand_bytes(self, self.tensor_units, rows)

    def peak_tops(self, freq_ghz: float) -> float:
        """Peak TOPS of one core at ``freq_ghz``."""
        return tops(self.macs_per_cycle, freq_ghz)


def core_rollup(ctx: ModelContext, config: CoreConfig, values, parts):
    """One core: its children, composed in ``Estimate.compose`` order.

    ``config`` supplies the fields every point of its shape shares and
    ``values`` the per-point ones.  ``parts`` makes each child and the
    composition: one core's component estimates (:class:`CoreParts`), or
    the components' closed forms over a grid's arrays (the batch layer).
    """
    n, rows, lanes = values.tensor_units, values.tu_rows, values.lanes
    operand = core_operand_bytes(config, n, rows)
    children = [parts.ifu(ctx)]
    if config.tu is not None:
        children.append(parts.tensor_units(ctx, values))
    if config.rt is not None:
        children.append(parts.reduction_trees(ctx))
    children.append(parts.vector_unit(ctx, lanes))
    units = core_functional_units(config, n)
    children.append(parts.vreg(ctx, lanes, units))
    if config.include_scalar_unit:
        children.append(parts.scalar_unit(ctx))
    children.append(parts.lsu(ctx, operand))
    targets = mem_bandwidth_targets_gbps(config.mem, operand, ctx.freq_ghz)
    children.append(parts.memory(ctx, values, *targets))
    children.extend(parts.extra_memories(ctx))
    connected = sum(child.area_mm2 for child in children)
    width = cdb_width_bits(config, rows, lanes)
    children.append(parts.cdb(ctx, width, connected))
    return parts.node.compose("core", children)


def made_once(method):
    """Memoize a part that takes no per-point value in the parts' memo,
    which the batch layer shares across a ``(context, shape)``'s points."""
    @functools.wraps(method)
    def once(self, ctx):
        key = (method.__name__, ctx)
        if key not in self.made:
            self.made[key] = method(self, ctx)
        return self.made[key]

    return once


class CoreParts:
    """:func:`core_rollup`'s parts for one core: its components' cached
    estimates (the integrity boundary), built by the same rules from the
    per-point values the arguments repeat."""

    node = Estimate

    def __init__(self, core: "Core"):
        self.core = core
        #: the parts :func:`made_once` keeps, by name and context.
        self.made: dict = {}

    @made_once
    def ifu(self, ctx):
        return self.core.ifu.estimate(ctx)

    def tensor_units(self, ctx, values):
        count = values.tensor_units
        name = "tensor units" if count > 1 else "tensor unit"
        return self.core.tensor_unit.estimate(ctx).replicated(count, name)

    @made_once
    def reduction_trees(self, ctx):
        count = self.core.config.reduction_trees
        name = "reduction trees" if count > 1 else "reduction tree"
        return self.core.reduction_tree.estimate(ctx).replicated(count, name)

    def vector_unit(self, ctx, lanes):
        return self.core.vector_unit.estimate(ctx)

    def vreg(self, ctx, lanes, attached_units):
        return self.core.vreg.estimate(ctx)

    @made_once
    def scalar_unit(self, ctx):
        return self.core.scalar_unit.estimate(ctx)

    def lsu(self, ctx, datapath_bytes):
        return self.core.lsu.estimate(ctx)

    def memory(self, ctx, values, read_gbps, write_gbps):
        return self.core.memory(ctx).estimate(ctx)

    @made_once
    def extra_memories(self, ctx):
        return [
            OnChipMemory(extra).estimate(ctx).renamed(name)
            for name, extra in self.core.config.extra_memories
        ]

    def cdb(self, ctx, width_bits, connected_area_mm2):
        return CentralDataBus(
            width_bits=width_bits,
            connected_area_mm2=connected_area_mm2,
            endpoints=self.core.config.functional_units + 1,
        ).estimate(ctx)

    @made_once
    def reduction_tree_pj(self, ctx):
        return self.core.reduction_tree.energy_per_active_cycle_pj(ctx)

    @made_once
    def scalar_unit_pj(self, ctx):
        return self.core.scalar_unit.energy_per_active_cycle_pj(ctx)


class Core:
    """Analytical model of one core, assembled from its units."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.ifu = InstructionFetchUnit()
        self.tensor_unit = (
            TensorUnit(config.tu) if config.tu is not None else None
        )
        self.reduction_tree = (
            ReductionTree(config.rt) if config.rt is not None else None
        )
        self.vector_unit = VectorUnit(config.vector_unit_config)
        self.vreg = VectorRegisterFile(config.vreg_config())
        self.scalar_unit = (
            ScalarUnit(scale=config.scalar_unit_scale)
            if config.include_scalar_unit
            else None
        )
        self.lsu = LoadStoreUnit(
            datapath_bytes=config.operand_bytes_per_cycle()
        )

    def memory(self, ctx: ModelContext) -> OnChipMemory:
        """The Mem slice with auto-filled bandwidth targets."""
        cfg = self.config.mem
        operand = self.config.operand_bytes_per_cycle()
        read, write = mem_bandwidth_targets_gbps(cfg, operand, ctx.freq_ghz)
        targets = dict(read_bandwidth_gbps=read, write_bandwidth_gbps=write)
        return OnChipMemory(replace(cfg, **targets))

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full core estimate with per-unit children."""
        return core_rollup(
            ctx, self.config, GridAxes.of(self.config), CoreParts(self)
        )
