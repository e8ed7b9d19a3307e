"""Point-independent model state hoisted out of the vectorized hot loop.

A Table I sweep varies only ``(X, N, T_x, T_y)``; everything else — the
technology node, the clock, and whole blocks whose configuration never
changes (instruction fetch, scalar unit, memory controller, PCIe, ICI,
DMA) — is fixed for a given :class:`~repro.arch.component.ModelContext`
and *preset family*.  :class:`TechSubstrate` evaluates the fixed blocks
exactly once, through their own ``estimate()`` methods, and keeps the
family's template configuration: the kernels in :mod:`repro.batch.kernels`
pass its fixed fields (datatypes, FIFO depth, VU sizing, Mem cell, NoC
bisection, ...) as scalars to the same ``repro.arch`` closed forms the
scalar classes call, with the point-dependent quantities as arrays.

Two families are modeled: ``"datacenter"`` (the int8 inference preset of
Table I) and ``"training"`` (the bf16/fp32 TPU-v2-class preset).  Each
family carries its own template chip and dependent-parameter rules (lane
count, Mem block/capacity scaling), the one part of the preset still
restated here in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from typing import Optional

from repro.arch.chip import Chip, ChipConfig
from repro.arch.component import Estimate, ModelContext
from repro.arch.vector_unit import VectorUnitConfig
from repro.config.presets import (
    datacenter_design_point,
    datacenter_training_point,
)
from repro.errors import ConfigurationError
from repro.tech.node import TechNode
from repro.units import MiB

#: The default preset family (the original vector-backend scope).
DEFAULT_FAMILY = "datacenter"

#: Preset factory per family, probed at the smallest template point.
FAMILY_BUILDERS: Dict[str, Callable[[int, int, int, int], Chip]] = {
    "datacenter": datacenter_design_point,
    "training": datacenter_training_point,
}

#: Dependent-parameter rules the kernels need in closed form.  The probe
#: template fixes every *constant*; these capture how the presets scale
#: the VU lane count and the Mem slice with the TU length ``X`` and the
#: core count: ``lanes = max(lane_mult * X, lane_floor)``,
#: ``block = max(block_mult * X, block_floor)``,
#: ``capacity = max(pool // cores, floor)``.
_FAMILY_RULES: Dict[str, Dict[str, int]] = {
    "datacenter": {
        "lane_mult": 1,
        "lane_floor": 1,
        "block_mult": 1,
        "block_floor": 32,
        "mem_pool_bytes": 32 * MiB,
        "mem_floor_bytes": 64 * 1024,
    },
    "training": {
        "lane_mult": 2,
        "lane_floor": 32,
        "block_mult": 2,
        "block_floor": 64,
        "mem_pool_bytes": 64 * MiB,
        "mem_floor_bytes": 256 * 1024,
    },
}


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
    #: the preset family this substrate models.
    family: str
    #: name -> rollup for IFU / scalar unit / MC / PCIe / ICI / DMA.
    fixed_blocks: Dict[str, BlockScalars]
    #: the probe chip's configuration; kernels read the point-independent
    #: knobs (cell dtype/control gates, FIFO depth, NoC bisection, ...) from
    #: here so preset changes flow into the vector path automatically.
    template_config: ChipConfig
    #: the VU configuration (dtype / SFU gates / pipeline depth; the lane
    #: count is re-derived per point from the lane rule below).
    template_vu_config: VectorUnitConfig
    template_lsu_queue_entries: int
    template_mem_pool_bytes: int
    template_mem_slice_floor_bytes: int
    template_mem_block_mult: int
    template_mem_block_floor: int
    template_lane_mult: int
    template_lane_floor: int
    template_noc_bisection_gbps: float
    template_offchip_gbps: float
    template_whitespace_fraction: float
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
    def build(
        cls, ctx: ModelContext, family: str = DEFAULT_FAMILY
    ) -> "TechSubstrate":
        """Hoist scalars and fixed-block estimates for ``(ctx, family)``.

        The probe chip is the smallest template of the family; the blocks
        harvested from it (IFU, scalar unit, memory controller, PCIe, ICI,
        DMA) are configured identically at every point of the family's
        grid, which is exactly what the vector-path support check
        guarantees.
        """
        builder = FAMILY_BUILDERS.get(family)
        rules = _FAMILY_RULES.get(family)
        if builder is None or rules is None:
            raise ConfigurationError(
                f"unknown vector-backend preset family {family!r}; "
                f"expected one of {sorted(FAMILY_BUILDERS)}"
            )
        template = builder(4, 1, 1, 1)
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
        if template.config.pcie is not None:
            fixed["pcie"] = BlockScalars.from_estimate(
                template.config.pcie.estimate(ctx)
            )
        if template.config.ici is not None:
            fixed["ici"] = BlockScalars.from_estimate(
                template.config.ici.estimate(ctx)
            )
        if template.config.dma is not None:
            fixed["dma"] = BlockScalars.from_estimate(
                template.config.dma.estimate(ctx)
            )
        return cls(
            ctx=ctx,
            tech=ctx.tech,
            freq_ghz=ctx.freq_ghz,
            cycle_ns=ctx.cycle_ns,
            family=family,
            fixed_blocks=fixed,
            template_config=template.config,
            template_vu_config=core.vector_unit.config,
            template_lsu_queue_entries=core.lsu.queue_entries,
            template_mem_pool_bytes=rules["mem_pool_bytes"],
            template_mem_slice_floor_bytes=rules["mem_floor_bytes"],
            template_mem_block_mult=rules["block_mult"],
            template_mem_block_floor=rules["block_floor"],
            template_lane_mult=rules["lane_mult"],
            template_lane_floor=rules["lane_floor"],
            template_noc_bisection_gbps=template.config.noc_bisection_gbps,
            template_offchip_gbps=template.config.offchip_bandwidth_gbps,
            template_whitespace_fraction=template.config.whitespace_fraction,
            su_energy_pj=su_energy_pj,
            mc_energy_per_byte_pj=mc_energy_per_byte_pj,
            mc_device_power_w=mc_device_power_w,
        )


#: Chip-level fixed-block order, mirroring `Chip.estimate` (the ICI entry
#: exists only for families whose template configures one, so the float
#: accumulation order matches the scalar walk for both cases).
_CHIP_FIXED_NAMES: Tuple[str, ...] = (
    "memory_controller",
    "pcie",
    "ici",
    "dma",
)

_SUBSTRATES: Dict[Tuple[ModelContext, str], TechSubstrate] = {}


def substrate_for(
    ctx: ModelContext, family: str = DEFAULT_FAMILY
) -> TechSubstrate:
    """Build (or reuse) the substrate for ``(ctx, family)``.

    Substrates are cached per (context, family): a sweep calls this once
    per family it touches, and repeated sweeps in one process (CLI,
    benchmarks, tests) share the hoisted state.
    """
    key = (ctx, family)
    cached = _SUBSTRATES.get(key)
    if cached is None:
        cached = TechSubstrate.build(ctx, family)
        _SUBSTRATES[key] = cached
    return cached
