"""Regular-logic model: blocks of standard-cell gates.

McPAT-style "regular logic" (decoders, control FSMs, dependency checkers,
FIFO control) is modeled as a count of NAND2-equivalent gates with an
average switching activity.  Delay through a gate chain uses the FO4 unit
from the technology node; driving large loads uses a classic geometric
buffer chain.

The closed forms are module-level functions of the gate count that
broadcast over NumPy arrays: :class:`LogicBlock` evaluates them for one
block, the batch kernels for a whole design-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.node import TechNode
from repro.units import fj_to_pj, nw_to_w, ps_to_ns, um2_to_mm2

#: Area margin for intra-block routing on top of raw cell area.
ROUTING_OVERHEAD = 1.25

#: Fraction of gates that toggle on an average active cycle.
DEFAULT_ACTIVITY = 0.10

#: Gate levels on a block's critical path unless stated otherwise.
DEFAULT_LOGIC_DEPTH = 12


@dataclass(frozen=True)
class LogicBlock:
    """A block of regular logic characterized by its gate count.

    Attributes:
        name: Label used in breakdown reports.
        gate_count: NAND2-equivalent gates in the block.
        activity: Fraction of gates toggling per active cycle.
        logic_depth: Gate levels on the block's critical path, used for the
            cycle-time contribution.
    """

    name: str
    gate_count: int
    activity: float = DEFAULT_ACTIVITY
    logic_depth: int = DEFAULT_LOGIC_DEPTH

    def __post_init__(self) -> None:
        if self.gate_count < 0:
            raise ConfigurationError(
                f"negative gate count in block {self.name!r}"
            )
        if not 0.0 <= self.activity <= 1.0:
            raise ConfigurationError(
                f"activity must be in [0, 1], got {self.activity} "
                f"in block {self.name!r}"
            )
        if self.logic_depth < 1:
            raise ConfigurationError(
                f"logic depth must be >= 1 in {self.name!r}"
            )

    def area_mm2(self, tech: TechNode) -> float:
        """Placed-and-routed block area."""
        return float(logic_area_mm2(tech, self.gate_count))

    def energy_per_cycle_pj(self, tech: TechNode) -> float:
        """Dynamic energy per active cycle at the block's activity."""
        return float(logic_energy_pj(tech, self.gate_count, self.activity))

    def leakage_w(self, tech: TechNode) -> float:
        """Static power of the block."""
        return float(logic_leakage_w(tech, self.gate_count))

    def delay_ns(self, tech: TechNode) -> float:
        """Critical-path delay through the block's gate levels."""
        return logic_delay_ns(tech, self.logic_depth)


def logic_area_mm2(tech: TechNode, gate_count):
    """Placed-and-routed area of ``gate_count`` gates."""
    return um2_to_mm2(gate_count * tech.gate_area_um2 * ROUTING_OVERHEAD)


def logic_energy_pj(tech: TechNode, gate_count, activity=DEFAULT_ACTIVITY):
    """Dynamic energy per active cycle of ``gate_count`` gates."""
    return fj_to_pj(gate_count * activity * tech.gate_energy_fj)


def logic_leakage_w(tech: TechNode, gate_count):
    """Static power of ``gate_count`` gates."""
    return nw_to_w(gate_count * tech.gate_leak_nw)


def logic_delay_ns(tech: TechNode, logic_depth: int = DEFAULT_LOGIC_DEPTH):
    """Critical-path delay through ``logic_depth`` gate levels."""
    return ps_to_ns(logic_depth * tech.fo4_ps)


def buffer_chain_delay_ns(tech: TechNode, load_ff: float) -> float:
    """Delay of a geometric buffer chain driving ``load_ff``.

    Stages of fanout 4 are inserted until the last stage sees at most a
    fanout-of-4 load relative to a minimum inverter; each stage costs one
    FO4 delay.  A load at or below FO4 costs a single stage.
    """
    if load_ff < 0:
        raise ConfigurationError(f"negative load: {load_ff} fF")
    if load_ff == 0:
        return 0.0
    fanout = load_ff / tech.gate_cap_ff
    stages = max(1, math.ceil(math.log(max(fanout, 1.0001)) / math.log(4.0)))
    return ps_to_ns(stages * tech.fo4_ps)


def buffer_chain_energy_pj(tech: TechNode, load_ff: float) -> float:
    """Switching energy of the buffer chain plus the load itself.

    The geometric chain's internal capacitance sums to ~1/3 of the load, so
    the total charged capacitance is ~4/3 of the load.
    """
    if load_ff < 0:
        raise ConfigurationError(f"negative load: {load_ff} fF")
    return fj_to_pj((4.0 / 3.0) * load_ff * tech.vdd_v**2)


def decoder_gate_count(address_bits):
    """NAND2-equivalent gates of an ``address_bits``-input row decoder.

    Predecode plus a final NOR stage: roughly two gates per output word line
    plus the predecoder, the standard CACTI first-order count.  An integer
    width returns an integer; an array of widths (each >= 1, as
    :func:`address_bits` produces) broadcasts.
    """
    if np.ndim(address_bits) == 0:
        if address_bits < 0:
            raise ConfigurationError(f"negative address width: {address_bits}")
        if address_bits == 0:
            return 1
    outputs = 2**address_bits
    predecode = 4 * address_bits
    return predecode + 2 * outputs


def address_bits(words):
    """Address width selecting one of ``words`` lines (at least 1 bit).

    ``ceil(log2(words))``, broadcasting over arrays; exact for the integer
    word counts the array models pass.
    """
    return np.maximum(1, np.ceil(np.log2(np.maximum(words, 2))))
