"""Runtime power: chip power while running a specific workload.

TDP answers "what must the package dissipate in the worst case"; runtime
power answers "what does this model burn on this chip".  NeuroMeter takes
per-component activity factors (from an external performance simulator —
our :mod:`repro.perf` — or from published measurements, as in the Eyeriss
validation of Fig. 5(c-d)) and combines them with the per-access energies
of the architectural models.

The combination is written once, in :func:`runtime_power_report`, and so
are its inputs, in :func:`runtime_power_inputs`; both broadcast:
:func:`runtime_power` feeds them one chip's numbers and the batch backend
arrays over a whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from repro.arch import tensor_unit as tu_mod
from repro.arch import vector_unit as vu_mod
from repro.arch import vreg as vreg_mod
from repro.arch.chip import Chip, ChipConfig, ChipParts, axes_of
from repro.arch.component import ModelContext
from repro.arch.core import GridAxes, core_functional_units
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import dynamic_power_w

#: Fraction of rated DRAM device power drawn with no traffic (refresh,
#: clocking, background).
_DRAM_IDLE_FRACTION = 0.2

#: Fraction of full-array energy burned per occupied-but-useless MAC-cycle
#: (pipeline fill/drain: operands move, results are not yet valid).
_FILL_ENERGY_FRACTION = 0.6


@dataclass(frozen=True)
class ActivityFactors:
    """Workload activity, as a performance simulator reports it.

    All ``*_utilization`` values are the fraction of peak activity over the
    measured window (compute: active MACs / total MACs / cycle); traffic is
    in GB/s sustained over the window.

    Attributes:
        tu_utilization: Systolic-array MAC utilization in [0, 1].
        tu_occupancy: Fraction of cycles the TU is clocked at all (idle
            cycles below this are clock gated).
        rt_utilization / vu_utilization: Same for RT and VU.
        su_activity: Scalar-unit issue rate.
        mem_read_gbps / mem_write_gbps: Aggregate on-chip Mem traffic.
        noc_gbps: Aggregate traffic crossing the NoC.
        offchip_gbps: Off-chip DRAM traffic.
        vreg_utilization: VReg port activity; defaults to the TU/VU max.
    """

    tu_utilization: float = 0.0
    tu_occupancy: float = 1.0
    rt_utilization: float = 0.0
    vu_utilization: float = 0.0
    su_activity: float = 0.3
    mem_read_gbps: float = 0.0
    mem_write_gbps: float = 0.0
    noc_gbps: float = 0.0
    offchip_gbps: float = 0.0
    vreg_utilization: float = -1.0

    def __post_init__(self) -> None:
        for name in (
            "tu_utilization",
            "tu_occupancy",
            "rt_utilization",
            "vu_utilization",
            "su_activity",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        for name in (
            "mem_read_gbps",
            "mem_write_gbps",
            "noc_gbps",
            "offchip_gbps",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    @property
    def effective_vreg_utilization(self) -> float:
        return float(_effective_vreg_utilization(self))

    @classmethod
    def unchecked(cls, values: Mapping) -> SimpleNamespace:
        """These fields, read from ``values`` unvalidated (arrays allowed).

        Fields missing from ``values`` take the defaults above.  The batch
        backend screens its outputs instead: infeasible points carry NaN
        activity.
        """
        return SimpleNamespace(
            **{item.name: values.get(item.name, item.default) for item in fields(cls)}
        )


def _effective_vreg_utilization(activity):
    """VReg port activity: as given, or the busier of the TU and VU."""
    if activity.vreg_utilization >= 0:
        return np.minimum(activity.vreg_utilization, 1.0)
    return np.maximum(activity.tu_utilization, activity.vu_utilization)


@dataclass(frozen=True)
class RuntimePowerReport:
    """Per-component runtime power in watts.

    Attributes:
        components: Dynamic watts per component label.
        leakage_w: Whole-chip static power.
    """

    components: dict[str, float] = field(default_factory=dict)
    leakage_w: float = 0.0

    @property
    def dynamic_w(self) -> float:
        return sum(self.components.values())

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w

    def share(self, component: str) -> float:
        """Fraction of total power drawn by one component."""
        if self.total_w <= 0:
            return 0.0
        return self.components.get(component, 0.0) / self.total_w


def runtime_power_report(
    freq_ghz: float,
    activity,
    tdp_leakage_w,
    *,
    cores,
    vu_pj,
    vreg_pj,
    mem_block_bytes,
    mem_read_pj,
    mem_write_pj,
    tensor_units=None,
    reduction_trees=None,
    su_pj=None,
    extra_memories=(),
    noc_pj_per_byte=None,
    offchip=None,
) -> RuntimePowerReport:
    """Per-component runtime power from activities and unit energies.

    Every quantity may be a number or an array over design points; the
    components accumulate in the report's order.  ``tensor_units`` and
    ``reduction_trees`` are ``(per-core count, energy per active cycle)``
    pairs, ``None`` when the core has none; ``noc_pj_per_byte`` is
    ``None`` without a NoC; ``offchip`` is ``(energy per byte, rated
    device power, peak bandwidth)`` of the memory controller, ``None``
    without one.  Clock-network overhead is amortized into each
    component (the paper does the same, Sec. II-C); leakage is the TDP
    estimate's, with the rated DRAM draw moved into the interface term.
    """
    overhead = calibration.CLOCK_NETWORK_OVERHEAD
    components: dict = {}

    if tensor_units is not None:
        count, per_tu = tensor_units
        active = dynamic_power_w(per_tu, freq_ghz) * activity.tu_utilization
        # Fill/drain and stall cycles still clock the array with operands
        # in flight — the energy waste that grows with TU length.
        fill = (
            dynamic_power_w(per_tu, freq_ghz)
            * _FILL_ENERGY_FRACTION
            * np.maximum(activity.tu_occupancy - activity.tu_utilization, 0.0)
        )
        components["tensor units"] = cores * count * (active + fill)

    if reduction_trees is not None:
        count, per_rt = reduction_trees
        components["reduction trees"] = (
            cores
            * count
            * dynamic_power_w(per_rt, freq_ghz)
            * activity.rt_utilization
        )

    components["vector units"] = (
        cores * dynamic_power_w(vu_pj, freq_ghz) * activity.vu_utilization
    )
    components["vector register files"] = (
        cores
        * dynamic_power_w(vreg_pj, freq_ghz)
        * _effective_vreg_utilization(activity)
    )
    if su_pj is not None:
        components["scalar units"] = (
            cores * dynamic_power_w(su_pj, freq_ghz) * activity.su_activity
        )

    read_rate_ghz = activity.mem_read_gbps / mem_block_bytes  # accesses/ns
    write_rate_ghz = activity.mem_write_gbps / mem_block_bytes
    components["on-chip memory"] = (
        read_rate_ghz * mem_read_pj + write_rate_ghz * mem_write_pj
    ) * 1e-3 * overhead
    for name in extra_memories:
        # Extra memories see traffic proportional to their configured
        # bandwidth targets relative to the main Mem.
        components.setdefault(name, 0.0)

    if noc_pj_per_byte is not None:
        components["network-on-chip"] = (
            activity.noc_gbps * noc_pj_per_byte * 1e-3
        )

    leakage = tdp_leakage_w
    if offchip is not None:
        energy_per_byte_pj, device_rated_w, peak_gbps = offchip
        interface_w = activity.offchip_gbps * energy_per_byte_pj * 1e-3
        # DRAM device power scales with traffic on top of an idle floor;
        # the rated (worst-case) draw only enters the TDP.
        if device_rated_w > 0:
            duty = np.minimum(
                activity.offchip_gbps / max(peak_gbps, 1e-9), 1.0
            )
            interface_w = interface_w + device_rated_w * (
                _DRAM_IDLE_FRACTION + (1.0 - _DRAM_IDLE_FRACTION) * duty
            )
            leakage = leakage - device_rated_w  # carried as static in TDP
        components["off-chip interface"] = interface_w

    return RuntimePowerReport(
        components=components, leakage_w=np.maximum(leakage, 0.0)
    )


def runtime_power_inputs(
    ctx: ModelContext,
    config: ChipConfig,
    values: GridAxes,
    parts,
    mem_energies_pj,
    noc_pj_per_byte,
) -> dict:
    """:func:`runtime_power_report`'s unit counts and energies.

    ``values`` are one chip's numbers or a grid's arrays.  ``parts`` (a
    :class:`~repro.arch.chip.ChipParts`) gives the energies that take no
    per-point value; the caller gives the Mem's (read, write) energies
    and the NoC's energy per byte (``None`` without a NoC).
    """
    tech, core, lanes = ctx.tech, config.core, values.lanes
    units = core_functional_units(core, values.tensor_units)
    groups = vreg_mod.port_groups(units, core.vreg_shared_ports)
    entries = vreg_mod.DEFAULT_ENTRIES
    inputs = dict(
        cores=values.cores,
        vu_pj=vu_mod.energy_per_active_cycle_pj(
            tech, core.vector_unit_config, lanes
        ),
        vreg_pj=vreg_mod.energy_per_active_cycle_pj(
            tech, entries, lanes, groups
        ),
        mem_block_bytes=values.mem_block_bytes,
        mem_read_pj=mem_energies_pj[0],
        mem_write_pj=mem_energies_pj[1],
        extra_memories=[name for name, _ in core.extra_memories],
        noc_pj_per_byte=noc_pj_per_byte,
    )
    if core.tu is not None:
        tu_pj = tu_mod.energy_per_active_cycle_pj(
            tech, core.tu, values.tu_rows, values.tu_cols
        )
        inputs["tensor_units"] = (values.tensor_units, tu_pj)
    if core.rt is not None:
        rt_pj = parts.reduction_tree_pj(ctx)
        inputs["reduction_trees"] = (core.reduction_trees, rt_pj)
    if core.include_scalar_unit:
        inputs["su_pj"] = parts.scalar_unit_pj(ctx)
    if config.dram is not None:
        inputs["offchip"] = parts.offchip(ctx)
    return inputs


def runtime_power(
    chip: Chip, ctx: ModelContext, activity: ActivityFactors
) -> RuntimePowerReport:
    """Runtime power of ``chip`` under ``activity``."""
    cfg = chip.config
    noc_pj_per_byte = None
    if cfg.cores > 1:
        noc_pj_per_byte = chip.noc(ctx).energy_per_byte_pj(ctx)
    inputs = runtime_power_inputs(
        ctx,
        cfg,
        axes_of(cfg),
        ChipParts(chip),
        chip.core.memory(ctx).access_energies_pj(ctx),
        noc_pj_per_byte,
    )
    report = runtime_power_report(
        ctx.freq_ghz, activity, chip.estimate(ctx).leakage_w, **inputs
    )
    return RuntimePowerReport(
        components={
            name: float(watts) for name, watts in report.components.items()
        },
        leakage_w=float(report.leakage_w),
    )
