"""Multiported register-file model.

Vector register files (VReg) and the scalar unit's integer register file are
small, heavily ported arrays.  Port count dominates their cost: every extra
port adds a word line and a bit-line pair, growing the cell pitch in both
dimensions — the classic reason NeuroMeter caps the number of TUs sharing a
VReg (Sec. III-A: eight 4x4 TUs per core push the VReg to 12.7% of core area
and 24.9% of core power).

The closed forms are module-level functions of ``(entries, word_bits,
ports)`` that broadcast over arrays; :class:`RegisterFile` evaluates them
for one register file, the batch kernels for every point of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import (
    address_bits,
    decoder_gate_count,
    logic_energy_pj,
    logic_leakage_w,
)
from repro.errors import ConfigurationError
from repro.tech.node import TechNode
from repro.units import fj_to_pj, nw_to_w, ps_to_ns, um2_to_mm2

#: A 2-port register cell is ~4x a 6T SRAM cell.
BASE_CELL_SRAM_RATIO = 4.0

#: Linear pitch growth per port beyond the second, in each dimension.
PORT_PITCH_GROWTH = 0.25

#: Peripheral (decoder/driver/mux) overhead on top of the cell array.
PERIPHERY_OVERHEAD = 1.35


@dataclass(frozen=True)
class RegisterFile:
    """A register file of ``entries`` words of ``word_bits`` bits.

    Attributes:
        entries: Number of architectural registers.
        word_bits: Width of each register in bits.
        read_ports: Simultaneous read ports.
        write_ports: Simultaneous write ports.
    """

    entries: int
    word_bits: int
    read_ports: int
    write_ports: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.word_bits <= 0:
            raise ConfigurationError("register file needs entries and width")
        if self.read_ports < 1 or self.write_ports < 1:
            raise ConfigurationError(
                "register file needs at least one read and one write port"
            )

    @property
    def total_ports(self) -> int:
        return self.read_ports + self.write_ports

    @property
    def bits(self) -> int:
        return self.entries * self.word_bits

    def area_mm2(self, tech: TechNode) -> float:
        """Array plus per-port decoders and drivers."""
        return float(
            regfile_area_mm2(
                tech, self.entries, self.word_bits, self.total_ports
            )
        )

    def read_energy_pj(self, tech: TechNode) -> float:
        """Energy of one full-width read on one port."""
        return float(
            regfile_read_energy_pj(
                tech, self.entries, self.word_bits, self.total_ports
            )
        )

    def write_energy_pj(self, tech: TechNode) -> float:
        """Energy of one full-width write on one port."""
        return float(
            regfile_write_energy_pj(
                tech, self.entries, self.word_bits, self.total_ports
            )
        )

    def leakage_w(self, tech: TechNode) -> float:
        """Static power of cells and periphery."""
        return float(
            regfile_leakage_w(
                tech, self.entries, self.word_bits, self.total_ports
            )
        )

    def access_latency_ns(self, tech: TechNode) -> float:
        """Decode + word line + small bitline; register files are fast."""
        return float(regfile_access_latency_ns(tech, self.entries))


def _port_growth(ports):
    """Cell pitch growth per dimension from ports beyond the second."""
    return 1.0 + PORT_PITCH_GROWTH * np.maximum(0, ports - 2)


def _decoder_gates(entries):
    return decoder_gate_count(address_bits(entries))


def regfile_area_mm2(tech: TechNode, entries, word_bits, ports):
    """Cell array plus one decoder per port."""
    cell_um2 = (
        tech.sram_cell_um2 * BASE_CELL_SRAM_RATIO * _port_growth(ports) ** 2
    )
    cells = entries * word_bits * cell_um2
    periph = _decoder_gates(entries) * ports * tech.gate_area_um2
    return um2_to_mm2((cells + periph) * PERIPHERY_OVERHEAD)


def _access_energy_pj(tech: TechNode, entries, word_bits, ports, per_bit):
    """One full-width access on one port; ``per_bit`` scales DFF energy."""
    bitline_fj = word_bits * tech.dff_energy_fj * per_bit * _port_growth(ports)
    return fj_to_pj(bitline_fj) + logic_energy_pj(
        tech, _decoder_gates(entries)
    )


def regfile_read_energy_pj(tech: TechNode, entries, word_bits, ports):
    """Energy of one full-width read on one port."""
    return _access_energy_pj(tech, entries, word_bits, ports, 0.30)


def regfile_write_energy_pj(tech: TechNode, entries, word_bits, ports):
    """Energy of one full-width write on one port."""
    return _access_energy_pj(tech, entries, word_bits, ports, 0.55)


def regfile_leakage_w(tech: TechNode, entries, word_bits, ports):
    """Static power of cells and per-port decoders."""
    cell_leak = nw_to_w(
        entries * word_bits * tech.sram_bit_leak_nw * 2.0 * _port_growth(ports)
    )
    return cell_leak + logic_leakage_w(tech, _decoder_gates(entries) * ports)


def regfile_access_latency_ns(tech: TechNode, entries):
    """Decode + word line + small bitline, in FO4 levels."""
    return ps_to_ns((3 + address_bits(entries)) * tech.fo4_ps)
