"""eDRAM array model.

NeuroMeter's on-chip Mem can select DFF, SRAM, or eDRAM cells (Sec. II-A).
The eDRAM model reuses the full SRAM organization machinery (banks,
subarrays, periphery, H-tree) with 1T1C cell parameters substituted, and
adds the refresh power that logic-process eDRAM retention requires.  Like
the SRAM closed forms, the functions take an :class:`SramArray` or an
array :class:`~repro.circuit.sram.Organization`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.circuit.sram import (
    SramArray,
    sram_access_latency_ns,
    sram_area_mm2,
    sram_leakage_w,
    sram_read_energy_pj,
    sram_write_energy_pj,
)
from repro.tech.node import TechNode
from repro.units import nw_to_w

#: eDRAM destructive reads + write-back lengthen the bank cycle.
_CYCLE_PENALTY = 1.5

#: eDRAM cell leakage relative to an SRAM bit (no cross-coupled inverters).
_CELL_LEAK_RATIO = 0.2


def _edram_view(tech: TechNode) -> TechNode:
    """A technology view whose 'SRAM' cell parameters describe eDRAM cells."""
    return replace(
        tech,
        sram_cell_um2=tech.edram_cell_um2,
        sram_cell_cap_ff=tech.sram_cell_cap_ff * 2.0,  # storage cap on BL
        sram_bit_leak_nw=tech.sram_bit_leak_nw * _CELL_LEAK_RATIO,
    )


def edram_area_mm2(tech: TechNode, org):
    """Array area with 1T1C cells."""
    return sram_area_mm2(_edram_view(tech), org)


def edram_read_energy_pj(tech: TechNode, org):
    """Read energy including the write-back of the destructive read."""
    view = _edram_view(tech)
    return sram_read_energy_pj(view, org) + 0.5 * sram_write_energy_pj(
        view, org
    )


def edram_write_energy_pj(tech: TechNode, org):
    """Write energy of one block."""
    return sram_write_energy_pj(_edram_view(tech), org)


def edram_leakage_w(tech: TechNode, org):
    """Static power: low cell leakage plus periodic refresh."""
    refresh = nw_to_w(org.capacity_bytes * 8 * tech.edram_refresh_nw_per_bit)
    return sram_leakage_w(_edram_view(tech), org) + refresh


def edram_access_latency_ns(tech: TechNode, org):
    """Random read latency."""
    return sram_access_latency_ns(_edram_view(tech), org)


@dataclass(frozen=True)
class EdramArray:
    """An eDRAM array with the same organization knobs as :class:`SramArray`."""

    organization: SramArray

    def area_mm2(self, tech: TechNode) -> float:
        """Array area with 1T1C cells."""
        return float(edram_area_mm2(tech, self.organization))

    def read_energy_pj(self, tech: TechNode) -> float:
        """Read energy including the write-back of the destructive read."""
        return float(edram_read_energy_pj(tech, self.organization))

    def write_energy_pj(self, tech: TechNode) -> float:
        """Write energy of one block."""
        return float(edram_write_energy_pj(tech, self.organization))

    def leakage_w(self, tech: TechNode) -> float:
        """Static power: low cell leakage plus periodic refresh."""
        return float(edram_leakage_w(tech, self.organization))

    def access_latency_ns(self, tech: TechNode) -> float:
        """Random read latency."""
        return float(edram_access_latency_ns(tech, self.organization))

    def random_cycle_ns(self, tech: TechNode) -> float:
        """Bank cycle including write-back."""
        return (
            self.organization.random_cycle_ns(_edram_view(tech))
            * _CYCLE_PENALTY
        )
