"""Central Data Bus (CDB): the intra-core interconnect.

Per Sec. II-A the CDB connects the VReg with the TU(s), VU, and Mem.  Wires
route around the functional components, so their length is estimated as the
square root of the connected components' area; when the repeated-wire delay
exceeds the cycle time, the bus is pipelined to preserve throughput.
The closed forms broadcast over the bus width and the connected area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import dff_active_energy_pj, dff_area_mm2, dff_leakage_w
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
    wire_pipeline_stages,
)
from repro.tech.node import TechNode
from repro.units import dynamic_power_w, um_to_mm


def _transfer_energy_pj(tech: TechNode, width_bits, length_mm, stages):
    """Energy to move one full bus word end to end."""
    wire = wire_params(tech, WireType.INTERMEDIATE)
    return width_bits * wire_energy_pj_per_bit(
        tech, wire, length_mm
    ) + dff_active_energy_pj(tech, width_bits * stages)


def cdb_terms(ctx: ModelContext, width_bits, connected_area_mm2) -> Terms:
    """Wire tracks plus the pipeline registers that meet the clock."""
    tech = ctx.tech
    wire = wire_params(tech, WireType.INTERMEDIATE)
    length_mm = np.sqrt(connected_area_mm2)
    stages = wire_pipeline_stages(tech, wire, length_mm, ctx.cycle_ns)
    pipe_bits = width_bits * stages
    energy = _transfer_energy_pj(tech, width_bits, length_mm, stages) * (
        calibration.CLOCK_NETWORK_OVERHEAD
    )
    return Terms(
        name="central data bus",
        area_mm2=um_to_mm(width_bits * wire.pitch_um) * length_mm
        + dff_area_mm2(tech, pipe_bits),
        dynamic_w=dynamic_power_w(energy, ctx.freq_ghz)
        * calibration.TDP_ACTIVITY["interconnect"],
        leakage_w=dff_leakage_w(tech, pipe_bits),
        cycle_time_ns=repeated_wire_delay_ns(tech, wire, length_mm) / stages,
    )


@dataclass(frozen=True)
class CentralDataBus:
    """The core-internal bus between VReg and the functional units.

    Attributes:
        width_bits: Bus width (one vector of accumulation-width elements in
            each direction by default).
        connected_area_mm2: Total area of the components the bus routes
            around; the wire length is its square root.
        endpoints: Functional units hanging off the bus.
    """

    width_bits: int
    connected_area_mm2: float
    endpoints: int = 3

    def __post_init__(self) -> None:
        if self.width_bits < 1:
            raise ConfigurationError("CDB width must be positive")
        if self.connected_area_mm2 < 0:
            raise ConfigurationError("connected area must be >= 0")
        if self.endpoints < 2:
            raise ConfigurationError("CDB needs at least two endpoints")

    @property
    def length_mm(self) -> float:
        """Routed bus length (the paper's sqrt-of-area estimate)."""
        return math.sqrt(self.connected_area_mm2)

    def pipeline_stages(self, ctx: ModelContext) -> int:
        """Registers inserted to meet the clock (>= 1)."""
        wire = wire_params(ctx.tech, WireType.INTERMEDIATE)
        return wire_pipeline_stages(
            ctx.tech, wire, self.length_mm, ctx.cycle_ns
        )

    def transfer_energy_pj(self, ctx: ModelContext) -> float:
        """Energy to move one full bus word end to end."""
        return float(
            _transfer_energy_pj(
                ctx.tech,
                self.width_bits,
                self.length_mm,
                self.pipeline_stages(ctx),
            )
        )

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Wire tracks plus pipeline registers."""
        return cdb_terms(
            ctx, self.width_bits, self.connected_area_mm2
        ).estimate()
