"""Vector Unit (VU): 1D lanes for pooling, activation, and partial-sum merge.

Per Sec. II-A the VU handles vector operations and merges partial sums when
an operator is tiled across TUs; in vector-only accelerators (EIE-style) it
is the main compute engine.  Each lane carries a MAC-capable ALU plus a
special-function block (piecewise activation / normalization support).
The closed forms take the lane count separately from the configuration,
so the batch kernels evaluate them over arrays of lane counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import (
    DffBank,
    dff_active_energy_pj,
    dff_leakage_w,
)
from repro.circuit.gates import logic_energy_pj, logic_leakage_w
from repro.circuit.mac import MacModel
from repro.datatypes import INT32, DataType
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.node import TechNode
from repro.units import dynamic_power_w, um2_to_mm2

#: Gates of the per-lane special-function block (LUT + shifter + compare).
DEFAULT_SFU_GATES = 2_500

#: VU ALU energy relative to a full MAC (most vector ops skip the multiply).
MAC_ENERGY_FRACTION = 0.6

#: Switching activity of the special-function block.
SFU_ACTIVITY = 0.15


@dataclass(frozen=True)
class VectorUnitConfig:
    """A 1D vector unit.

    Attributes:
        lanes: Parallel lanes; NeuroMeter auto-matches this to the TU array
            length (Sec. III-A).
        dtype: Lane data type — typically the accumulation type, since the
            VU post-processes TU partial sums.
        sfu_gates: Gates in the per-lane special-function block; deep
            activation pipelines (TPU-v1's activation unit) carry an order
            of magnitude more than a lean merge-only VU.
        pipeline_depth: Pipeline registers per lane.
    """

    lanes: int
    dtype: DataType = INT32
    sfu_gates: int = DEFAULT_SFU_GATES
    pipeline_depth: int = 4

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ConfigurationError("vector unit needs at least one lane")
        if self.sfu_gates < 0 or self.pipeline_depth < 1:
            raise ConfigurationError("invalid vector unit sizing")

    @property
    def macs(self) -> int:
        """Equivalent MACs per cycle (one fused op per lane)."""
        return self.lanes


# -- closed forms (``lanes`` broadcasts) ------------------------------------


def _lane_mac(config: VectorUnitConfig) -> MacModel:
    return MacModel(config.dtype, config.dtype)


def _lane_bits(config: VectorUnitConfig) -> int:
    return config.dtype.bits * config.pipeline_depth


def lane_energy_pj(tech: TechNode, config: VectorUnitConfig) -> float:
    """Energy of one lane executing one vector element operation."""
    energy = _lane_mac(config).energy_per_mac_pj(tech) * MAC_ENERGY_FRACTION
    energy += dff_active_energy_pj(tech, _lane_bits(config))
    energy += logic_energy_pj(tech, config.sfu_gates, SFU_ACTIVITY)
    return energy


def energy_per_active_cycle_pj(
    tech: TechNode, config: VectorUnitConfig, lanes
):
    """Whole-VU energy on a fully active cycle, for ``lanes`` lanes."""
    return (
        lanes
        * lane_energy_pj(tech, config)
        * calibration.CLOCK_NETWORK_OVERHEAD
    )


def vector_unit_terms(
    ctx: ModelContext, config: VectorUnitConfig, lanes
) -> Terms:
    """One VU of ``lanes`` lanes (numbers or arrays) built like ``config``."""
    tech = ctx.tech
    mac = _lane_mac(config)
    lane_um2 = mac.area_um2(tech)
    lane_um2 += _lane_bits(config) * tech.dff_area_um2
    lane_um2 += config.sfu_gates * tech.gate_area_um2
    return Terms(
        name="vector unit",
        area_mm2=um2_to_mm2(lanes * lane_um2)
        * calibration.DATAPATH_ROUTING_OVERHEAD,
        dynamic_w=dynamic_power_w(
            energy_per_active_cycle_pj(tech, config, lanes), ctx.freq_ghz
        )
        * calibration.TDP_ACTIVITY["compute"],
        leakage_w=lanes
        * (
            mac.leakage_w(tech)
            + dff_leakage_w(tech, _lane_bits(config))
            + logic_leakage_w(tech, config.sfu_gates)
        ),
        # The MAC path dominates the SFU.
        cycle_time_ns=mac.delay_ns(tech)
        + DffBank("vu-lane-regs", 1).setup_plus_clk_to_q_ns(tech),
    )


class VectorUnit:
    """Analytical power/area/timing model of one vector unit."""

    def __init__(self, config: VectorUnitConfig):
        self.config = config

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """Whole-VU energy on a fully active cycle."""
        return float(
            energy_per_active_cycle_pj(ctx.tech, self.config, self.config.lanes)
        )

    def area_mm2(self, ctx: ModelContext) -> float:
        """Total VU area."""
        return self.estimate(ctx).area_mm2

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full VU estimate."""
        return vector_unit_terms(ctx, self.config, self.config.lanes).estimate()
