"""Chip assembly: cores + NoC + memory controllers + host/chip interfaces.

The chip model rolls every component into the final numbers the paper
reports: die area (with the ~21% white-space/unknown share carried for the
validation chips), thermal design power (modeled peak power times a
uniform guardband), and the full per-component breakdown trees of
Figs. 3-5 and Fig. 8.

A configuration splits into its *shape* and per-point values
(:func:`split_config`); :func:`chip_rollup` is written once over them, for
one chip and for the batch kernels' grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.arch.core import Core, CoreConfig, CoreParts, GridAxes, made_once
from repro.arch.noc import (
    NetworkOnChip,
    NocConfig,
    NocTopology,
    node_pitch_mm,
)
from repro.arch.periph import (
    DmaController,
    DramKind,
    InterChipInterconnect,
    MemoryController,
    PcieInterface,
)
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import tops

#: Table I's NoC rule: a ring up to this many cores, a 2D mesh beyond.
RING_MAX_CORES = 4


def whitespace_area_mm2(modeled_area_mm2, fraction: float):
    """Area of the unknown blocks / white space around the modeled blocks."""
    return modeled_area_mm2 * fraction / (1.0 - fraction)


def thermal_design_power_w(dynamic_w, leakage_w):
    """Guardbanded dynamic power plus leakage."""
    return dynamic_w * calibration.CHIP_TDP_MARGIN + leakage_w


def noc_topology(fixed: Optional[NocTopology], cores):
    """Table I's rule: a ring up to :data:`RING_MAX_CORES` cores, a 2D mesh
    beyond, unless ``fixed`` names one; arrays of ``cores`` broadcast."""
    if fixed is not None:
        return fixed
    return np.where(
        cores <= RING_MAX_CORES, NocTopology.RING, NocTopology.MESH_2D
    )[()]


@dataclass(frozen=True)
class ChipConfig:
    """A whole accelerator chip.

    Attributes:
        core: Per-core configuration (all cores identical).
        cores_x: Horizontal core count (``T_x``).
        cores_y: Vertical core count (``T_y``).
        noc_topology: Inter-core network topology.  Following Table I, a
            ring is used up to 4 cores and a 2D mesh from 8 cores when left
            as ``None``.
        noc_bisection_gbps: NoC bisection bandwidth per direction.
        dram: Off-chip memory technology; ``None`` omits the controller
            (test chips like Eyeriss drive plain I/O pads instead).
        offchip_bandwidth_gbps: Required off-chip bandwidth.
        pcie: Host interface; ``None`` omits it.
        ici: Inter-chip interconnect; ``None`` omits it.
        whitespace_fraction: Die fraction reserved for unknown blocks and
            white space (the paper carries ~21%).
    """

    core: CoreConfig
    cores_x: int = 1
    cores_y: int = 1
    noc_topology: Optional[NocTopology] = None
    noc_bisection_gbps: float = 256.0
    dram: Optional[DramKind] = DramKind.HBM2
    offchip_bandwidth_gbps: float = 700.0
    pcie: Optional[PcieInterface] = field(default_factory=PcieInterface)
    ici: Optional[InterChipInterconnect] = None
    dma: DmaController = field(default_factory=DmaController)
    whitespace_fraction: float = calibration.WHITESPACE_FRACTION

    def __post_init__(self) -> None:
        if self.cores_x < 1 or self.cores_y < 1:
            raise ConfigurationError("chip needs at least one core")
        if not 0.0 <= self.whitespace_fraction < 0.9:
            raise ConfigurationError(
                "whitespace fraction must be in [0, 0.9)"
            )

    @property
    def cores(self) -> int:
        return self.cores_x * self.cores_y

    @property
    def topology(self) -> NocTopology:
        """Resolved NoC topology (Table I's ring-vs-mesh rule)."""
        return noc_topology(self.noc_topology, self.cores)

    @property
    def macs_per_cycle(self) -> int:
        """Peak chip-wide MAC throughput per cycle."""
        return self.cores * self.core.macs_per_cycle

    def peak_tops(self, freq_ghz: float) -> float:
        """Peak chip TOPS at a clock rate."""
        return tops(self.macs_per_cycle, freq_ghz)


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


def axes_of(config: ChipConfig) -> GridAxes:
    """The per-point values of ``config``, as Python numbers."""
    return GridAxes.of(config.core, config.cores_x, config.cores_y)


def split_config(config: ChipConfig) -> Tuple[ChipConfig, GridAxes]:
    """``(shape, values)``: one shape's configurations form one grid."""
    return shape_of(config), axes_of(config)


def chip_rollup(ctx: ModelContext, config: ChipConfig, values, core, parts):
    """The chip: ``core`` replicated, the NoC (multi-core chips only), the
    peripherals, and white space; ``parts`` as in
    :func:`~repro.arch.core.core_rollup`.

    The white-space child carries area only — the paper folds unknown
    blocks into area the same way but never assigns them power.
    """
    children = [parts.cores(core, values.cores)]
    noc = parts.noc(ctx, values, core.area_mm2, values.cores > 1)
    if noc is not None:
        children.append(noc)
    if config.dram is not None:
        children.append(parts.memory_controller(ctx))
    if config.pcie is not None:
        children.append(parts.pcie(ctx))
    if config.ici is not None:
        children.append(parts.ici(ctx))
    children.append(parts.dma(ctx))
    node = parts.node
    modeled = node.compose("modeled blocks", children)
    area = whitespace_area_mm2(modeled.area_mm2, config.whitespace_fraction)
    whitespace = node("white space / unknown", area, 0.0, 0.0)
    return node.compose("chip", children + [whitespace])


class ChipParts(CoreParts):
    """:func:`chip_rollup`'s parts for one chip: its own components."""

    def __init__(self, chip: "Chip"):
        super().__init__(chip.core)
        self.chip = chip

    def cores(self, core, count):
        return core.replicated(count, name="cores" if count > 1 else "core")

    def noc(self, ctx, values, core_area_mm2, multi):
        if multi:
            return self.chip.noc(ctx, core_area_mm2).estimate(ctx)
        return None

    @made_once
    def memory_controller(self, ctx):
        return self.chip.memory_controller().estimate(ctx)

    @made_once
    def pcie(self, ctx):
        return self.chip.config.pcie.estimate(ctx)

    @made_once
    def ici(self, ctx):
        return self.chip.config.ici.estimate(ctx)

    @made_once
    def dma(self, ctx):
        return self.chip.config.dma.estimate(ctx)

    @made_once
    def offchip(self, ctx):
        """``runtime_power_report``'s memory-controller coefficients."""
        controller = self.chip.memory_controller()
        return (
            controller.energy_per_byte_pj(),
            controller.device_power_w(),
            self.chip.config.offchip_bandwidth_gbps,
        )


class Chip:
    """Analytical model of the full chip."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.core = Core(config.core)

    def noc(self, ctx: ModelContext, core_area_mm2=None) -> NetworkOnChip:
        """The inter-core network sized for this chip's floorplan."""
        if core_area_mm2 is None:
            core_area_mm2 = self.core.estimate(ctx).area_mm2
        noc_config = NocConfig(
            topology=self.config.topology,
            nodes_x=self.config.cores_x,
            nodes_y=self.config.cores_y,
            bisection_gbps=self.config.noc_bisection_gbps,
        )
        return NetworkOnChip(
            noc_config, node_pitch_mm=float(node_pitch_mm(core_area_mm2))
        )

    def memory_controller(self) -> Optional[MemoryController]:
        """The off-chip memory controller block (``None`` when omitted)."""
        if self.config.dram is None:
            return None
        return MemoryController(
            kind=self.config.dram,
            bandwidth_gbps=self.config.offchip_bandwidth_gbps,
        )

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Whole-chip rollup including white space."""
        cfg = self.config
        core = self.core.estimate(ctx)
        return chip_rollup(ctx, cfg, axes_of(cfg), core, ChipParts(self))

    # -- headline numbers ------------------------------------------------------

    def area_mm2(self, ctx: ModelContext) -> float:
        """Die area including white space."""
        return self.estimate(ctx).area_mm2

    @cached_estimate
    def tdp_w(self, ctx: ModelContext) -> float:
        """Thermal design power: guardbanded dynamic plus leakage."""
        estimate = self.estimate(ctx)
        return thermal_design_power_w(estimate.dynamic_w, estimate.leakage_w)

    def max_freq_ghz(self, ctx: ModelContext) -> float:
        """Highest clock supported by the slowest component."""
        return self.estimate(ctx).max_freq_ghz

    @cached_estimate
    def peak_tops(self, ctx: ModelContext) -> float:
        """Peak TOPS at the context clock."""
        return self.config.peak_tops(ctx.freq_ghz)
