"""Vector Register file (VReg): the data-exchange hub of the core.

Per Sec. II-A, the VReg sits between the TU(s), the VU, and the on-chip
memory.  NeuroMeter reserves two read ports and one write port per attached
functional unit (a core with one TU and one VU gets the default 4R/2W for
dual issue); multiple TUs may instead share one port group, trading mapping
flexibility for area.  Port count is the dominant cost and is why the
datacenter study caps TUs per core at four (Sec. III-A).  The closed
forms broadcast over the lane count and the port-group count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.regfile import (
    regfile_access_latency_ns,
    regfile_area_mm2,
    regfile_leakage_w,
    regfile_read_energy_pj,
    regfile_write_energy_pj,
)
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.node import TechNode
from repro.units import dynamic_power_w

#: Architectural vector registers.
DEFAULT_ENTRIES = 32

#: Bits per vector element held in the VReg (accumulation width).
ELEMENT_BITS = 32

#: Ports reserved per attached functional unit.
READ_PORTS_PER_UNIT = 2
WRITE_PORTS_PER_UNIT = 1


@dataclass(frozen=True)
class VRegConfig:
    """Vector register file configuration.

    Attributes:
        vector_lanes: Vector width in elements; auto-matched to the TU
            array length.
        attached_units: Functional units with private port groups (N TUs +
            1 VU unless ports are shared).
        shared_ports: When true, all TUs share a single port group (the
            paper's alternative for large N).
        entries: Number of architectural vector registers.
    """

    vector_lanes: int
    attached_units: int
    shared_ports: bool = False
    entries: int = DEFAULT_ENTRIES

    def __post_init__(self) -> None:
        if self.vector_lanes < 1:
            raise ConfigurationError("VReg needs at least one lane")
        if self.attached_units < 1:
            raise ConfigurationError("VReg needs at least one attached unit")
        if self.entries < 2:
            raise ConfigurationError("VReg needs at least two entries")

    @property
    def port_groups(self) -> int:
        """Independent port groups after optional sharing."""
        return port_groups(self.attached_units, self.shared_ports)

    @property
    def read_ports(self) -> int:
        return READ_PORTS_PER_UNIT * self.port_groups

    @property
    def write_ports(self) -> int:
        return WRITE_PORTS_PER_UNIT * self.port_groups

    @property
    def issue_width(self) -> int:
        """Instructions issued per cycle (one per port group)."""
        return self.port_groups


def port_groups(attached_units, shared_ports: bool):
    """Independent port groups: one per attached unit, unless shared."""
    if shared_ports:
        return 2  # one shared TU group + the VU group
    return attached_units


def _regfile_shape(entries: int, lanes, groups) -> tuple:
    """(entries, word bits, total ports) of the register-file array."""
    ports = READ_PORTS_PER_UNIT * groups + WRITE_PORTS_PER_UNIT * groups
    return (entries, lanes * ELEMENT_BITS, ports)


def energy_per_active_cycle_pj(tech: TechNode, entries: int, lanes, groups):
    """All port groups active: 2 reads + 1 write per group."""
    shape = _regfile_shape(entries, lanes, groups)
    per_group = 2 * regfile_read_energy_pj(
        tech, *shape
    ) + regfile_write_energy_pj(tech, *shape)
    return groups * per_group * calibration.CLOCK_NETWORK_OVERHEAD


def vreg_terms(ctx: ModelContext, entries: int, lanes, groups) -> Terms:
    """A VReg of ``lanes``-element vectors with ``groups`` port groups."""
    tech = ctx.tech
    shape = _regfile_shape(entries, lanes, groups)
    return Terms(
        name="vector register file",
        area_mm2=regfile_area_mm2(tech, *shape),
        dynamic_w=dynamic_power_w(
            energy_per_active_cycle_pj(tech, entries, lanes, groups),
            ctx.freq_ghz,
        )
        * calibration.TDP_ACTIVITY["memory"],
        leakage_w=regfile_leakage_w(tech, *shape),
        cycle_time_ns=regfile_access_latency_ns(tech, entries),
    )


class VectorRegisterFile:
    """Analytical model of the VReg as a wide multiported register file."""

    def __init__(self, config: VRegConfig):
        self.config = config

    def area_mm2(self, ctx: ModelContext) -> float:
        """Total VReg area."""
        return self.estimate(ctx).area_mm2

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """All port groups active: 2 reads + 1 write per group."""
        cfg = self.config
        return float(
            energy_per_active_cycle_pj(
                ctx.tech, cfg.entries, cfg.vector_lanes, cfg.port_groups
            )
        )

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full VReg estimate."""
        cfg = self.config
        return vreg_terms(
            ctx, cfg.entries, cfg.vector_lanes, cfg.port_groups
        ).estimate()
