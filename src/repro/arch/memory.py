"""On-chip Memory (Mem): the scratchpad / cache storage of a core.

Per Sec. II-A, the user configures only capacity, block size, target
latency, and target throughput; the internal optimizer picks banks and
read/write ports (this is how NeuroMeter "automatically searched" TPU-v2's
two-read-one-write VMem banking).  The cell type is selectable between
DFF, SRAM, and eDRAM, and the structure may be unified (TPU-v1's unified
buffer) or dedicated (Eyeriss's per-function banks).

The Mem's rules and rollup are written once, over numbers for
:class:`OnChipMemory` or arrays for the batch kernels' grids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import (
    DffBank,
    dff_active_energy_pj,
    dff_area_mm2,
    dff_leakage_w,
)
from repro.circuit.edram import (
    edram_access_latency_ns,
    edram_area_mm2,
    edram_leakage_w,
    edram_read_energy_pj,
    edram_write_energy_pj,
)
from repro.circuit.gates import logic_area_mm2, logic_energy_pj, logic_leakage_w
from repro.circuit.sram import (
    Organization,
    SramArray,
    SramRequirements,
    lattice_organization,
    optimize_sram,
    search_lattice,
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

#: Largest DFF-based Mem the model accepts.
DFF_MAX_CAPACITY_BYTES = 65536


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


def mem_bandwidth_targets_gbps(
    config: "OnChipMemoryConfig", operand_bytes_per_cycle, freq_ghz
):
    """The Mem's (read, write) targets: the configured ones, or enough
    to stream every compute unit's operands (half of that for writes)."""
    operand_gbps = operand_bytes_per_cycle * freq_ghz
    read, write = config.read_bandwidth_gbps, config.write_bandwidth_gbps
    return (
        read if read > 0 else operand_gbps,
        write if write > 0 else operand_gbps / 2.0,
    )


def oversized_dff(cell: MemCellKind, capacity_bytes):
    """Where the model rejects the Mem: a DFF one above 64 KiB."""
    too_large = capacity_bytes > DFF_MAX_CAPACITY_BYTES
    return (cell is MemCellKind.DFF) & too_large


def floored_banks(banks, min_banks: int):
    """The searched bank count raised to the configured floor."""
    return np.maximum(banks, min_banks)


def latency_bound_ns(ctx: ModelContext, config: "OnChipMemoryConfig"):
    """The pipelined access-latency budget the organization must meet."""
    return config.latency_cycles * ctx.cycle_ns


def searched_organizations(
    ctx: ModelContext, config: "OnChipMemoryConfig", capacity, block, *targets
) -> tuple[np.ndarray, Organization]:
    """:meth:`OnChipMemory.organization` per point, over arrays.

    Returns a mask of the points the scalar path organizes without
    raising, and their organizations, searched once per distinct
    requirement row.  A failing point (no feasible candidate, or floored
    banks that cannot each hold a block) gets a NaN bank count, which
    poisons every quantity derived from its organization.
    """
    rows = np.stack(np.broadcast_arrays(capacity, block, *targets))
    unique, inverse = np.unique(
        rows.reshape(4, -1), axis=1, return_inverse=True
    )
    index = search_lattice(
        ctx.tech,
        ctx.freq_ghz,
        unique[0],
        unique[1],
        latency_bound_ns(ctx, config),
        unique[2],
        unique[3],
    )[inverse.reshape(-1)].reshape(rows.shape[1:])
    chosen = np.where(index >= 0, index, 0)
    org = lattice_organization(rows[0], rows[1], chosen)
    banks = floored_banks(org.banks, config.min_banks)
    feasible = (index >= 0) & (rows[0] >= banks * rows[1])
    return feasible, org._replace(banks=np.where(feasible, banks, np.nan))


def access_energies_pj(tech, config: "OnChipMemoryConfig", capacity, org):
    """(read, write) energy of one block access: a DFF Mem clocks its
    whole flop bank to write and half to read; arrays use ``org``."""
    if config.cell is MemCellKind.DFF:
        write = dff_active_energy_pj(tech, capacity * 8)
        return write * 0.5, write
    model = ARRAY_MODELS[config.cell]
    return model.read_energy_pj(tech, org), model.write_energy_pj(tech, org)


def memory_terms(
    ctx: ModelContext,
    config: "OnChipMemoryConfig",
    capacity_bytes,
    org,
    energies_pj,
    targets_gbps,
) -> Terms:
    """A Mem built like ``config``, at the TDP access rate.

    A DFF Mem is a flop bank of ``capacity_bytes``; an SRAM or eDRAM one
    has organization ``org`` (an :class:`SramArray` or an array
    ``Organization``), with which the (read, write) energies and targets
    broadcast.  A cache (``scratchpad`` false) adds its tag logic.
    """
    tech = ctx.tech
    read_energy_pj, write_energy_pj = energies_pj
    read_bandwidth_gbps, write_bandwidth_gbps = targets_gbps
    if config.cell is MemCellKind.DFF:
        bits = capacity_bytes * 8
        return Terms(
            name="on-chip memory",
            area_mm2=dff_area_mm2(tech, bits) * 1.15,
            dynamic_w=dynamic_power_w(
                write_energy_pj * calibration.CLOCK_NETWORK_OVERHEAD,
                ctx.freq_ghz,
            )
            * calibration.TDP_ACTIVITY["memory"],
            leakage_w=dff_leakage_w(tech, bits),
        )
    model = ARRAY_MODELS[config.cell]
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
    if not config.scratchpad:
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
        cycle_time_ns=model.access_latency_ns(tech, org)
        / config.latency_cycles,
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
        if oversized_dff(config.cell, config.capacity_bytes):
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
            target_latency_ns=latency_bound_ns(ctx, cfg),
            target_read_bandwidth_gbps=cfg.read_bandwidth_gbps,
            target_write_bandwidth_gbps=cfg.write_bandwidth_gbps,
        )
        organization = optimize_sram(requirements, ctx.tech)
        return replace(
            organization,
            banks=int(floored_banks(organization.banks, cfg.min_banks)),
        )

    # -- per-access quantities (used by the runtime power model) ------------

    def _array_organization(self, ctx: ModelContext):
        """The organization, for SRAM and eDRAM cells (DFF Mems have none)."""
        if self.config.cell is MemCellKind.DFF:
            return None
        return self.organization(ctx)

    def access_energies_pj(self, ctx: ModelContext) -> tuple[float, float]:
        """(read, write) energy of one block access."""
        cfg = self.config
        org = self._array_organization(ctx)
        energies = access_energies_pj(ctx.tech, cfg, cfg.capacity_bytes, org)
        return float(energies[0]), float(energies[1])

    def read_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block read."""
        return self.access_energies_pj(ctx)[0]

    def write_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block write."""
        return self.access_energies_pj(ctx)[1]

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
        cfg = self.config
        return memory_terms(
            ctx,
            cfg,
            cfg.capacity_bytes,
            self._array_organization(ctx),
            self.access_energies_pj(ctx),
            (cfg.read_bandwidth_gbps, cfg.write_bandwidth_gbps),
        ).estimate()
