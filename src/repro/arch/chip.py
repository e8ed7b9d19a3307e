"""Chip assembly: cores + NoC + memory controllers + host/chip interfaces.

The chip model rolls every component into the final numbers the paper
reports: die area (with the ~21% white-space/unknown share carried for the
validation chips), thermal design power (modeled peak power times a
uniform guardband), and the full per-component breakdown trees of
Figs. 3-5 and Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.arch.core import Core, CoreConfig
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
        if self.noc_topology is not None:
            return self.noc_topology
        if self.cores <= RING_MAX_CORES:
            return NocTopology.RING
        return NocTopology.MESH_2D

    @property
    def macs_per_cycle(self) -> int:
        """Peak chip-wide MAC throughput per cycle."""
        return self.cores * self.core.macs_per_cycle

    def peak_tops(self, freq_ghz: float) -> float:
        """Peak chip TOPS at a clock rate."""
        return tops(self.macs_per_cycle, freq_ghz)


class Chip:
    """Analytical model of the full chip."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.core = Core(config.core)

    def noc(self, ctx: ModelContext) -> NetworkOnChip:
        """The inter-core network sized for this chip's floorplan."""
        pitch = float(node_pitch_mm(self.core.estimate(ctx).area_mm2))
        noc_config = NocConfig(
            topology=self.config.topology,
            nodes_x=self.config.cores_x,
            nodes_y=self.config.cores_y,
            bisection_gbps=self.config.noc_bisection_gbps,
        )
        return NetworkOnChip(noc_config, node_pitch_mm=pitch)

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
        """Whole-chip rollup including white space.

        The white-space child carries area only — the paper folds unknown
        blocks into area the same way but never assigns them power.
        """
        cfg = self.config
        children: list[Estimate] = []

        core_estimate = self.core.estimate(ctx)
        children.append(
            core_estimate.replicated(
                cfg.cores, name="cores" if cfg.cores > 1 else "core"
            )
        )
        if cfg.cores > 1:
            children.append(self.noc(ctx).estimate(ctx))
        controller = self.memory_controller()
        if controller is not None:
            children.append(controller.estimate(ctx))
        if cfg.pcie is not None:
            children.append(cfg.pcie.estimate(ctx))
        if cfg.ici is not None:
            children.append(cfg.ici.estimate(ctx))
        children.append(cfg.dma.estimate(ctx))

        modeled = Estimate.compose("modeled blocks", children)
        whitespace = Estimate(
            name="white space / unknown",
            area_mm2=whitespace_area_mm2(
                modeled.area_mm2, cfg.whitespace_fraction
            ),
            dynamic_w=0.0,
            leakage_w=0.0,
        )
        return Estimate.compose("chip", children + [whitespace])

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
