"""On-chip Memory (Mem): the scratchpad / cache storage of a core.

Per Sec. II-A, the user configures only capacity, block size, target
latency, and target throughput; the internal optimizer picks banks and
read/write ports (this is how NeuroMeter "automatically searched" TPU-v2's
two-read-one-write VMem banking).  The cell type is selectable between
DFF, SRAM, and eDRAM, and the structure may be unified (TPU-v1's unified
buffer) or dedicated (Eyeriss's per-function banks).

The SRAM/eDRAM rollup is one function of the chosen organization, which
may be an :class:`~repro.circuit.sram.SramArray` or an array
:class:`~repro.circuit.sram.Organization`: the batch kernels evaluate it
over the organizations their lattice search picks for a whole grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import DffBank
from repro.circuit.edram import (
    edram_access_latency_ns,
    edram_area_mm2,
    edram_leakage_w,
    edram_read_energy_pj,
    edram_write_energy_pj,
)
from repro.circuit.gates import logic_area_mm2, logic_energy_pj, logic_leakage_w
from repro.circuit.sram import (
    SramArray,
    SramRequirements,
    optimize_sram,
    sram_access_latency_ns,
    sram_area_mm2,
    sram_leakage_w,
    sram_read_energy_pj,
    sram_write_energy_pj,
)
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import dynamic_power_w

#: Default pipelined access-latency budget, in cycles.
DEFAULT_LATENCY_CYCLES = 4

#: Tag + state storage overhead when configured as a cache, per block.
CACHE_TAG_BITS_PER_BLOCK = 28

#: Memory controller / arbitration logic per bank.
BANK_CONTROL_GATES = 3_000


class MemCellKind(enum.Enum):
    """Storage cell used by the on-chip memory."""

    SRAM = "sram"
    EDRAM = "edram"
    DFF = "dff"


class ArrayModel(NamedTuple):
    """The array closed forms of one cell kind, each ``f(tech, org)``."""

    area_mm2: Callable
    read_energy_pj: Callable
    write_energy_pj: Callable
    leakage_w: Callable
    access_latency_ns: Callable


#: Array physics per cell kind (DFF Mems are flop banks, not arrays).
ARRAY_MODELS = {
    MemCellKind.SRAM: ArrayModel(
        sram_area_mm2,
        sram_read_energy_pj,
        sram_write_energy_pj,
        sram_leakage_w,
        sram_access_latency_ns,
    ),
    MemCellKind.EDRAM: ArrayModel(
        edram_area_mm2,
        edram_read_energy_pj,
        edram_write_energy_pj,
        edram_leakage_w,
        edram_access_latency_ns,
    ),
}


def array_memory_terms(
    ctx: ModelContext,
    org,
    cell: MemCellKind,
    read_energy_pj,
    write_energy_pj,
    read_bandwidth_gbps,
    write_bandwidth_gbps,
    latency_cycles: int,
    scratchpad: bool = True,
) -> Terms:
    """An SRAM or eDRAM Mem of organization ``org``, at the TDP access rate.

    ``org`` is an :class:`SramArray` or an array ``Organization``; the
    per-access energies (its ``ARRAY_MODELS`` ones, which runtime power
    also reads) and the bandwidth targets broadcast with it.  A cache
    (``scratchpad`` false) adds its tag logic.
    """
    tech = ctx.tech
    model = ARRAY_MODELS[cell]
    # TDP traffic: sustain the configured bandwidth targets (what the
    # compute units actually demand), bounded by the physical ports.
    bytes_per_cycle = org.block_bytes * ctx.freq_ghz
    reads_per_cycle = np.minimum(
        np.maximum(read_bandwidth_gbps / bytes_per_cycle, 1.0),
        org.banks * org.read_ports,
    )
    writes_per_cycle = np.minimum(
        np.maximum(write_bandwidth_gbps / bytes_per_cycle, 0.5),
        org.banks * org.write_ports,
    )
    energy = (
        reads_per_cycle * read_energy_pj + writes_per_cycle * write_energy_pj
    )
    control_gates = BANK_CONTROL_GATES * org.banks
    area = model.area_mm2(tech, org) + logic_area_mm2(tech, control_gates)
    leak = model.leakage_w(tech, org) + logic_leakage_w(tech, control_gates)
    energy += logic_energy_pj(tech, control_gates)
    if not scratchpad:
        tag_gates = (
            org.capacity_bytes // org.block_bytes * CACHE_TAG_BITS_PER_BLOCK // 2
        )
        area += logic_area_mm2(tech, tag_gates)
        leak += logic_leakage_w(tech, tag_gates)
        energy += logic_energy_pj(tech, tag_gates, 0.2)
    return Terms(
        name="on-chip memory",
        area_mm2=area,
        dynamic_w=dynamic_power_w(
            energy * calibration.CLOCK_NETWORK_OVERHEAD, ctx.freq_ghz
        )
        * calibration.TDP_ACTIVITY["memory"],
        leakage_w=leak,
        cycle_time_ns=model.access_latency_ns(tech, org) / latency_cycles,
    )


@dataclass(frozen=True)
class OnChipMemoryConfig:
    """High-level on-chip memory configuration (the NeuroMeter inputs).

    Attributes:
        capacity_bytes: Logical capacity.
        block_bytes: Bytes per access.
        cell: Storage cell kind.
        scratchpad: Software-managed scratchpad (True) or cache (False).
        unified: Unified structure (weights + activations together) or
            dedicated per-function banks.
        read_bandwidth_gbps: Required aggregate read throughput.
        write_bandwidth_gbps: Required aggregate write throughput.
        latency_cycles: Pipelined access-latency budget in cycles.
        min_banks: Lower bound on banking (Eyeriss dedicates 27 banks).
    """

    capacity_bytes: int
    block_bytes: int
    cell: MemCellKind = MemCellKind.SRAM
    scratchpad: bool = True
    unified: bool = True
    read_bandwidth_gbps: float = 0.0
    write_bandwidth_gbps: float = 0.0
    latency_cycles: int = DEFAULT_LATENCY_CYCLES
    min_banks: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigurationError("memory capacity/block must be positive")
        if self.latency_cycles < 1:
            raise ConfigurationError("latency budget must be >= 1 cycle")
        if self.min_banks < 1:
            raise ConfigurationError("min_banks must be >= 1")


class OnChipMemory:
    """Analytical model of the on-chip memory with auto-banking."""

    def __init__(self, config: OnChipMemoryConfig):
        if config.cell is MemCellKind.DFF and config.capacity_bytes > 65536:
            raise ConfigurationError(
                "DFF-based Mem above 64 KiB is not a sensible design point"
            )
        self.config = config
        self._organization_cache: dict[
            tuple[float, float], SramArray
        ] = {}

    # -- organization ------------------------------------------------------

    def organization(self, ctx: ModelContext) -> SramArray:
        """The bank/port organization chosen by the internal optimizer.

        Memoized twice over: per instance (the dict below) and across
        instances with identical configs through the process-wide estimate
        cache, so one bank search serves every core and design point that
        shares the Mem configuration.
        """
        key = (ctx.tech.feature_nm, ctx.freq_ghz)
        if key not in self._organization_cache:
            self._organization_cache[key] = self._cached_optimize(ctx)
        return self._organization_cache[key]

    @cached_estimate
    def _cached_optimize(self, ctx: ModelContext) -> SramArray:
        return self._optimize(ctx)

    def _optimize(self, ctx: ModelContext) -> SramArray:
        cfg = self.config
        requirements = SramRequirements(
            capacity_bytes=cfg.capacity_bytes,
            block_bytes=cfg.block_bytes,
            freq_ghz=ctx.freq_ghz,
            target_latency_ns=cfg.latency_cycles * ctx.cycle_ns,
            target_read_bandwidth_gbps=cfg.read_bandwidth_gbps,
            target_write_bandwidth_gbps=cfg.write_bandwidth_gbps,
        )
        organization = optimize_sram(requirements, ctx.tech)
        if organization.banks < cfg.min_banks:
            organization = SramArray(
                capacity_bytes=cfg.capacity_bytes,
                block_bytes=cfg.block_bytes,
                banks=cfg.min_banks,
                read_ports=organization.read_ports,
                write_ports=organization.write_ports,
                subarray_rows=organization.subarray_rows,
            )
        return organization

    # -- per-access quantities (used by the runtime power model) ------------

    def read_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block read."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().energy_per_active_cycle_pj(ctx.tech) * 0.5
        model = ARRAY_MODELS[self.config.cell]
        return float(model.read_energy_pj(ctx.tech, self.organization(ctx)))

    def write_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block write."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().energy_per_active_cycle_pj(ctx.tech)
        model = ARRAY_MODELS[self.config.cell]
        return float(model.write_energy_pj(ctx.tech, self.organization(ctx)))

    def access_latency_ns(self, ctx: ModelContext) -> float:
        """Random-access read latency."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().setup_plus_clk_to_q_ns(ctx.tech)
        model = ARRAY_MODELS[self.config.cell]
        return float(model.access_latency_ns(ctx.tech, self.organization(ctx)))

    def peak_read_bandwidth_gbps(self, ctx: ModelContext) -> float:
        """Aggregate read bandwidth of the chosen organization."""
        return self.organization(ctx).read_bandwidth_gbps(ctx.freq_ghz)

    def peak_write_bandwidth_gbps(self, ctx: ModelContext) -> float:
        """Aggregate write bandwidth of the chosen organization."""
        return self.organization(ctx).write_bandwidth_gbps(ctx.freq_ghz)

    def _dff_bank(self) -> DffBank:
        return DffBank("mem-dff", self.config.capacity_bytes * 8)

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full Mem estimate, sized at the TDP access rate."""
        tech = ctx.tech
        cfg = self.config
        if cfg.cell is MemCellKind.DFF:
            bank = self._dff_bank()
            return Estimate(
                name="on-chip memory",
                area_mm2=bank.area_mm2(tech) * 1.15,
                dynamic_w=dynamic_power_w(
                    bank.energy_per_active_cycle_pj(tech)
                    * calibration.CLOCK_NETWORK_OVERHEAD,
                    ctx.freq_ghz,
                )
                * calibration.TDP_ACTIVITY["memory"],
                leakage_w=bank.leakage_w(tech),
            )
        return array_memory_terms(
            ctx,
            self.organization(ctx),
            cfg.cell,
            self.read_energy_pj(ctx),
            self.write_energy_pj(ctx),
            cfg.read_bandwidth_gbps,
            cfg.write_bandwidth_gbps,
            cfg.latency_cycles,
            cfg.scratchpad,
        ).estimate()
