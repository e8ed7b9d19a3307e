"""D-flip-flop banks: pipeline registers, FIFOs, and DFF-based buffers.

Systolic-cell local buffers, TU I/O FIFOs, reduction-tree pipeline stages,
and bus pipeline registers are all banks of standard-cell flip-flops.  The
energy model separates the clock-pin energy (paid every cycle the bank is
clocked, unless clock gated) from the data-toggle energy (paid only when
stored bits change).  The closed forms broadcast over arrays of bit counts,
so the batch kernels evaluate the same functions :class:`DffBank` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.node import TechNode
from repro.units import fj_to_pj, nw_to_w, ps_to_ns, um2_to_mm2

#: Fraction of DFF energy drawn by the clock pins (the rest is data path).
CLOCK_ENERGY_FRACTION = 0.4

#: Average fraction of data bits toggling per write.
DEFAULT_DATA_ACTIVITY = 0.5


@dataclass(frozen=True)
class DffBank:
    """A bank of D flip-flops.

    Attributes:
        name: Label used in breakdown reports.
        bits: Number of flip-flops.
        data_activity: Fraction of bits that toggle on an active cycle.
        clock_gated: Whether the clock tree into the bank is gated when the
            bank is idle (ML accelerators commonly gate large FIFOs).
    """

    name: str
    bits: int
    data_activity: float = DEFAULT_DATA_ACTIVITY
    clock_gated: bool = True

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ConfigurationError(
                f"negative bit count in DFF bank {self.name!r}"
            )
        if not 0.0 <= self.data_activity <= 1.0:
            raise ConfigurationError(
                f"data activity must be in [0, 1], got {self.data_activity}"
            )

    def area_mm2(self, tech: TechNode) -> float:
        """Placed bank area (cell area only; routing is the parent's)."""
        return float(dff_area_mm2(tech, self.bits))

    def energy_per_active_cycle_pj(self, tech: TechNode) -> float:
        """Energy on a cycle where the bank is clocked and written."""
        return float(
            dff_active_energy_pj(tech, self.bits, self.data_activity)
        )

    def energy_per_idle_cycle_pj(self, tech: TechNode) -> float:
        """Energy on a cycle where the bank holds its value.

        Clock-gated banks pay nothing; otherwise the clock pins still toggle.
        """
        if self.clock_gated:
            return 0.0
        return fj_to_pj(
            self.bits * tech.dff_energy_fj * CLOCK_ENERGY_FRACTION
        )

    def leakage_w(self, tech: TechNode) -> float:
        """Static power of the bank."""
        return float(dff_leakage_w(tech, self.bits))

    def setup_plus_clk_to_q_ns(self, tech: TechNode) -> float:
        """Sequencing overhead a pipeline stage pays for this register."""
        return ps_to_ns(2.0 * tech.fo4_ps)


def dff_area_mm2(tech: TechNode, bits):
    """Placed cell area of ``bits`` flip-flops."""
    return um2_to_mm2(bits * tech.dff_area_um2)


def dff_active_energy_pj(
    tech: TechNode, bits, data_activity=DEFAULT_DATA_ACTIVITY
):
    """Energy of ``bits`` flip-flops on a clocked, written cycle."""
    per_bit_fj = tech.dff_energy_fj * (
        CLOCK_ENERGY_FRACTION + (1.0 - CLOCK_ENERGY_FRACTION) * data_activity
    )
    return fj_to_pj(bits * per_bit_fj)


def dff_leakage_w(tech: TechNode, bits):
    """Static power of ``bits`` flip-flops."""
    return nw_to_w(bits * tech.dff_leak_nw)
