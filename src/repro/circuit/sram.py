"""CACTI-style SRAM array model with an internal organization optimizer.

NeuroMeter asks the user only for high-level memory parameters — capacity,
block size, target latency, target throughput — and "automatically set[s]
the low-level parameters (such as the number of banks, the number of the
read/write ports) via its internal optimizer" (Sec. II).  This module
implements both halves:

* :class:`SramArray` — the analytical area/energy/latency/leakage model of a
  concrete organization (banks x subarrays x multi-port cells, with
  decoders, bitlines, sense amps, and an H-tree output network), and
* :func:`optimize_sram` — the search over banks, ports, and subarray shape
  that satisfies :class:`SramRequirements` at minimum area.

The closed forms are module-level functions of an *organization* — an
:class:`SramArray`, or an :class:`Organization` whose six fields are
broadcastable arrays.  :class:`SramArray` evaluates them for one array;
:func:`search_lattice` scores every candidate of the fixed bank x port x
subarray lattice for a block of requirement rows at once, and serves both
:func:`optimize_sram` (one row) and the batch kernels (a sweep's rows).

Units follow :mod:`repro.units` (mm^2, pJ, ns, W).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.circuit.gates import (
    address_bits,
    decoder_gate_count,
    logic_energy_pj,
)
from repro.circuit.rc import ladder_delay_ns
from repro.tech import calibration
from repro.errors import ConfigurationError, OptimizationError
from repro.tech.node import TechNode
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
)
from repro.units import (
    MiB,
    fj_to_pj,
    mm2_to_um2,
    nw_to_w,
    ps_to_ns,
    um2_to_mm2,
    um_to_mm,
)

#: Redundancy + ECC storage overhead on top of the logical capacity.
ECC_REDUNDANCY_FACTOR = 1.20

#: Linear cell-pitch growth per port beyond the first (extra word/bit lines).
PORT_PITCH_GROWTH = 0.35

#: Area margin for inter-subarray and inter-bank routing.
ARRAY_ROUTING_OVERHEAD = 1.30

#: Read bitline swing as a fraction of Vdd (sense-amp assisted small swing).
READ_SWING = 0.25

#: Sense-amplifier energy per sensed bit at the 45 nm anchor, scaled by node.
SENSE_ENERGY_FJ_45NM = 5.0

#: SRAM cell pull-down resistance used for the bitline Elmore delay.
CELL_ON_RESISTANCE_OHM = 12_000.0

#: Word-line driver output resistance for the Elmore delay.
WORDLINE_DRIVER_OHM = 2_000.0

#: Per-subarray control gates beyond the row decoder.
SUBARRAY_CONTROL_GATES = 400

#: Gate energy (fJ) of the 45 nm anchor node the sense-amp energy scales by.
SENSE_ANCHOR_GATE_ENERGY_FJ = 1.70

#: Aspect ratio (width / height) of a 6T cell.
CELL_ASPECT = 1.45

SUBARRAY_ROW_CHOICES = (64, 128, 256, 512)
MAX_SUBARRAY_COLS = 512
MAX_BANKS = 4096

#: Requirement rows scored per lattice evaluation: bounds the working
#: memory (rows x 312 candidates per temporary) for any number of rows.
SEARCH_BLOCK_ROWS = 32


@dataclass(frozen=True)
class SramRequirements:
    """High-level memory requirements, as a NeuroMeter user supplies them.

    Attributes:
        capacity_bytes: Logical capacity.
        block_bytes: Bytes delivered per port per access.
        target_latency_ns: Access-latency bound; ``None`` means one clock
            cycle at ``freq_ghz``.
        target_read_bandwidth_gbps: Aggregate read throughput the memory
            must sustain (GB/s).
        target_write_bandwidth_gbps: Aggregate write throughput (GB/s).
        freq_ghz: Clock the memory is accessed at.
    """

    capacity_bytes: int
    block_bytes: int
    freq_ghz: float
    target_latency_ns: Optional[float] = None
    target_read_bandwidth_gbps: float = 0.0
    target_write_bandwidth_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("memory capacity must be positive")
        if self.block_bytes <= 0:
            raise ConfigurationError("memory block size must be positive")
        if self.block_bytes * 8 > self.capacity_bytes * 8:
            raise ConfigurationError("block size exceeds capacity")
        if self.freq_ghz <= 0:
            raise ConfigurationError("memory clock must be positive")

    @property
    def latency_bound_ns(self) -> float:
        """Effective latency target (one cycle when not given explicitly)."""
        if self.target_latency_ns is not None:
            return self.target_latency_ns
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class SramArray:
    """A concrete multi-bank, multi-port SRAM organization.

    Attributes:
        capacity_bytes: Logical capacity of the whole array.
        block_bytes: Bytes per access per port.
        banks: Independently addressable banks.
        read_ports: Read ports per bank.
        write_ports: Write ports per bank.
        subarray_rows: Word lines per subarray.
    """

    capacity_bytes: int
    block_bytes: int
    banks: int = 1
    read_ports: int = 1
    write_ports: int = 1
    subarray_rows: int = 256

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ConfigurationError("bank count must be >= 1")
        if self.read_ports < 1 or self.write_ports < 0:
            raise ConfigurationError("need >= 1 read port and >= 0 write ports")
        if self.subarray_rows < 8:
            raise ConfigurationError("subarray needs at least 8 rows")
        if self.capacity_bytes < self.banks * self.block_bytes:
            raise ConfigurationError(
                "capacity too small for the requested banking"
            )

    # -- geometry ------------------------------------------------------------

    @property
    def total_ports(self) -> int:
        return _total_ports(self)

    @property
    def bank_bits(self) -> float:
        """Stored bits per bank including ECC/redundancy."""
        return _bank_bits(self)

    @property
    def subarray_cols(self) -> int:
        """Bit lines per subarray (wide blocks split across subarrays)."""
        return int(_subarray_cols(self))

    @property
    def activated_subarrays(self) -> int:
        """Subarrays accessed in parallel to deliver one block."""
        return int(_activated_subarrays(self))

    @property
    def subarrays_per_bank(self) -> int:
        return int(_subarrays_per_bank(self))

    # -- physics -------------------------------------------------------------

    def area_mm2(self, tech: TechNode) -> float:
        """Total array area including inter-bank routing overhead."""
        return float(sram_area_mm2(tech, self))

    def bank_area_mm2(self, tech: TechNode) -> float:
        """Area of a single bank (for wire-length estimates)."""
        return self.area_mm2(tech) / self.banks

    def read_energy_pj(self, tech: TechNode) -> float:
        """Dynamic energy of one block read from one bank."""
        return float(sram_read_energy_pj(tech, self))

    def write_energy_pj(self, tech: TechNode) -> float:
        """Dynamic energy of one block write (full bitline swing)."""
        return float(sram_write_energy_pj(tech, self))

    def leakage_w(self, tech: TechNode) -> float:
        """Static power: cells (with port growth) plus periphery gates."""
        return float(sram_leakage_w(tech, self))

    def access_latency_ns(self, tech: TechNode) -> float:
        """Random-access read latency: decode + word line + bit line + output."""
        return float(sram_access_latency_ns(tech, self))

    def random_cycle_ns(self, tech: TechNode) -> float:
        """Minimum time between two accesses to the same bank."""
        # Precharge overlaps the output H-tree; cycle ~= core access path.
        return self.access_latency_ns(tech) * 1.1

    def read_bandwidth_gbps(self, freq_ghz: float) -> float:
        """Peak aggregate read bandwidth (GB/s) at ``freq_ghz``."""
        return float(sram_read_bandwidth_gbps(self, freq_ghz))

    def write_bandwidth_gbps(self, freq_ghz: float) -> float:
        """Peak aggregate write bandwidth (GB/s) at ``freq_ghz``."""
        return float(sram_write_bandwidth_gbps(self, freq_ghz))


class Organization(NamedTuple):
    """An organization's six fields as numbers or broadcastable arrays.

    The same fields as :class:`SramArray`, without its validation: the
    lattice search and the batch kernels evaluate the closed forms on
    arrays of candidates and design points.
    """

    capacity_bytes: Any
    block_bytes: Any
    banks: Any
    read_ports: Any
    write_ports: Any
    subarray_rows: Any


# -- closed forms (``org`` is an SramArray or an Organization) ----------------


def _total_ports(org):
    return org.read_ports + org.write_ports


def _bank_bits(org):
    return org.capacity_bytes * 8 / org.banks * ECC_REDUNDANCY_FACTOR


def _subarray_cols(org):
    return np.minimum(np.maximum(org.block_bytes * 8, 32), MAX_SUBARRAY_COLS)


def _activated_subarrays(org):
    return np.maximum(1, np.ceil(org.block_bytes * 8 / _subarray_cols(org)))


def _subarrays_per_bank(org):
    per_subarray = org.subarray_rows * _subarray_cols(org)
    return np.maximum(
        _activated_subarrays(org), np.ceil(_bank_bits(org) / per_subarray)
    )


def _cell_dims_um(tech: TechNode, org):
    """(width, height) of one multi-port cell in um."""
    growth = 1.0 + PORT_PITCH_GROWTH * (_total_ports(org) - 1)
    area = tech.sram_cell_um2 * growth**2
    height = np.sqrt(area / CELL_ASPECT)
    return (CELL_ASPECT * height, height)


def _control_gates(org):
    """Row decoder plus per-subarray control, in gates."""
    return (
        decoder_gate_count(address_bits(org.subarray_rows))
        + SUBARRAY_CONTROL_GATES
    )


def _subarray_area_um2(tech: TechNode, org):
    """One subarray: cells plus row/column periphery."""
    cell_w, cell_h = _cell_dims_um(tech, org)
    rows, cols = org.subarray_rows, _subarray_cols(org)
    cell_area = rows * cols * cell_w * cell_h
    # Column periphery (sense amps, write drivers, precharge, mux) per
    # port pair: ~18 cell-heights tall under every column.
    column_periph = cols * cell_w * (18.0 * cell_h) * np.maximum(
        1, _total_ports(org)
    )
    # Row periphery (decoder + word-line drivers): ~12 cell-widths wide.
    row_periph = rows * cell_h * (12.0 * cell_w)
    return cell_area + column_periph + row_periph + _control_gates(org) * (
        tech.gate_area_um2
    )


def _global_routing_factor(org):
    """Capacity-dependent global routing / redundancy overhead.

    Large arrays spend a growing area fraction on the H-tree spine,
    repeater farms, and redundancy blocks; small arrays do not.
    """
    capacity_mib = org.capacity_bytes / MiB
    # math.log2 and np.log2 can differ in the last bit; one SramArray
    # keeps math.log2 and arrays of organizations np.log2, so neither
    # backend's numbers move.
    log2 = np.log2 if isinstance(capacity_mib, np.ndarray) else math.log2
    return np.where(
        capacity_mib <= 1.0,
        1.0,
        1.0 + calibration.SRAM_CAPACITY_ROUTING_COEF * log2(capacity_mib),
    )


def sram_area_mm2(tech: TechNode, org):
    """Total array area including inter-bank routing overhead."""
    per_bank = _subarrays_per_bank(org) * _subarray_area_um2(tech, org)
    total_um2 = (
        org.banks
        * per_bank
        * ARRAY_ROUTING_OVERHEAD
        * _global_routing_factor(org)
    )
    return um2_to_mm2(total_um2)


def _bank_area_mm2(tech: TechNode, org):
    return sram_area_mm2(tech, org) / org.banks


def _bitline_cap_ff(tech: TechNode, org):
    _, cell_h = _cell_dims_um(tech, org)
    length_mm = um_to_mm(org.subarray_rows * cell_h)
    wire = wire_params(tech, WireType.LOCAL)
    return (
        org.subarray_rows * tech.sram_cell_cap_ff
        + length_mm * wire.c_ff_per_mm
    )


def _wordline_energy_pj(tech: TechNode, org):
    cell_w, _ = _cell_dims_um(tech, org)
    wire = wire_params(tech, WireType.LOCAL)
    cols = _subarray_cols(org)
    length_mm = um_to_mm(cols * cell_w)
    cap_ff = cols * tech.gate_cap_ff * 0.5 + length_mm * wire.c_ff_per_mm
    return fj_to_pj(cap_ff * tech.vdd_v**2)


def _access_terms_pj(tech: TechNode, org, bits, bank_mm2):
    """(word lines, decode, H-tree) energy: paid by reads and writes alike.

    The H-tree moves a block between the bank edge and the subarray; the
    average access traverses most of the bank span (data plus the
    address/select fan-out travelling the other way).
    """
    activated = _activated_subarrays(org)
    decode = activated * logic_energy_pj(tech, _control_gates(org))
    htree = wire_params(tech, WireType.INTERMEDIATE)
    length_mm = 0.9 * np.sqrt(bank_mm2)
    return (
        activated * _wordline_energy_pj(tech, org),
        decode,
        bits * wire_energy_pj_per_bit(tech, htree, length_mm),
    )


def sram_read_energy_pj(tech: TechNode, org):
    """Dynamic energy of one block read from one bank."""
    return _read_energy_pj(tech, org, _bank_area_mm2(tech, org))


def _read_energy_pj(tech: TechNode, org, bank_mm2):
    bits = org.block_bytes * 8
    bitline = fj_to_pj(
        bits
        * _bitline_cap_ff(tech, org)
        * tech.vdd_v
        * (READ_SWING * tech.vdd_v)
    )
    sense = fj_to_pj(
        bits
        * SENSE_ENERGY_FJ_45NM
        * tech.gate_energy_fj
        / SENSE_ANCHOR_GATE_ENERGY_FJ
    )
    wordlines, decode, htree = _access_terms_pj(tech, org, bits, bank_mm2)
    return (
        bitline + sense + wordlines + decode + htree
    ) * calibration.SRAM_ACCESS_OVERHEAD


def sram_write_energy_pj(tech: TechNode, org):
    """Dynamic energy of one block write (full bitline swing)."""
    bits = org.block_bytes * 8
    bitline = fj_to_pj(bits * _bitline_cap_ff(tech, org) * tech.vdd_v**2)
    bank_mm2 = _bank_area_mm2(tech, org)
    wordlines, decode, htree = _access_terms_pj(tech, org, bits, bank_mm2)
    return (
        bitline + wordlines + decode + htree
    ) * calibration.SRAM_ACCESS_OVERHEAD


def sram_leakage_w(tech: TechNode, org):
    """Static power: cells (with port growth) plus periphery gates."""
    stored_bits = org.capacity_bytes * 8 * ECC_REDUNDANCY_FACTOR
    port_growth = 1.0 + 0.5 * PORT_PITCH_GROWTH * (_total_ports(org) - 1)
    cell_leak = nw_to_w(stored_bits * tech.sram_bit_leak_nw * port_growth)
    periph_area_um2 = (
        mm2_to_um2(sram_area_mm2(tech, org))
        - stored_bits * tech.sram_cell_um2 * port_growth
    )
    periph_gates = np.maximum(periph_area_um2, 0.0) / tech.gate_area_um2
    # Periphery is mostly idle wire/drivers; count a third as leaky gates.
    periph_leak = nw_to_w(periph_gates * tech.gate_leak_nw) / 3.0
    return cell_leak + periph_leak


def sram_access_latency_ns(tech: TechNode, org):
    """Random-access read latency: decode + word line + bit line + output."""
    return _access_latency_ns(tech, org, _bank_area_mm2(tech, org))


def _access_latency_ns(tech: TechNode, org, bank_mm2):
    rows, cols = org.subarray_rows, _subarray_cols(org)
    decode_ns = ps_to_ns((2 + address_bits(rows)) * tech.fo4_ps)

    cell_w, cell_h = _cell_dims_um(tech, org)
    wire = wire_params(tech, WireType.LOCAL)
    wl_len_mm = um_to_mm(cols * cell_w)
    wordline_ns = ladder_delay_ns(
        total_resistance_ohm=wl_len_mm * wire.r_ohm_per_mm,
        total_capacitance_ff=wl_len_mm * wire.c_ff_per_mm
        + cols * tech.gate_cap_ff * 0.5,
        driver_ohm=WORDLINE_DRIVER_OHM,
    )

    bl_len_mm = um_to_mm(rows * cell_h)
    bitline_ns = ladder_delay_ns(
        total_resistance_ohm=bl_len_mm * wire.r_ohm_per_mm,
        total_capacitance_ff=_bitline_cap_ff(tech, org),
        driver_ohm=CELL_ON_RESISTANCE_OHM,
    ) * READ_SWING  # sense amps fire at the small-swing point

    sense_ns = ps_to_ns(2.0 * tech.fo4_ps)
    htree = wire_params(tech, WireType.INTERMEDIATE)
    output_ns = repeated_wire_delay_ns(tech, htree, 0.5 * np.sqrt(bank_mm2))
    return decode_ns + wordline_ns + bitline_ns + sense_ns + output_ns


def sram_read_bandwidth_gbps(org, freq_ghz):
    """Peak aggregate read bandwidth (GB/s) at ``freq_ghz``."""
    return org.banks * org.read_ports * org.block_bytes * freq_ghz


def sram_write_bandwidth_gbps(org, freq_ghz):
    """Peak aggregate write bandwidth; write-portless banks write via reads."""
    effective = np.where(org.write_ports > 0, org.write_ports, org.read_ports)
    return org.banks * effective * org.block_bytes * freq_ghz


#: The candidate organizations, one column per candidate, in the search
#: order: banks outer, then read ports, write ports and subarray rows.
#: First-wins tie-breaking depends on this order.
_LATTICE = np.array(
    list(
        itertools.product(
            [2**k for k in range(int(math.log2(MAX_BANKS)) + 1)],  # banks
            (1, 2, 4),  # read ports
            (1, 2),  # write ports
            SUBARRAY_ROW_CHOICES,
        )
    ),
    dtype=np.float64,
).T


def lattice_organization(capacity_bytes, block_bytes, index) -> Organization:
    """The lattice candidates at ``index`` (each >= 0) for these rows."""
    banks, read_ports, write_ports, rows = _LATTICE[:, index]
    return Organization(
        capacity_bytes, block_bytes, banks, read_ports, write_ports, rows
    )


def search_lattice(
    tech: TechNode,
    freq_ghz: float,
    capacity_bytes,
    block_bytes,
    latency_bound_ns,
    read_bandwidth_gbps,
    write_bandwidth_gbps,
) -> np.ndarray:
    """Index of the smallest feasible lattice candidate per requirement row.

    Each argument after ``freq_ghz`` is a number or a 1-D array (one
    entry per row).  A candidate is feasible when the capacity holds one
    block per bank, it meets the latency bound and both bandwidth targets;
    the winner has the smallest area, ties broken toward lower read energy
    and then toward the earlier candidate.  Rows are scored
    :data:`SEARCH_BLOCK_ROWS` at a time against every candidate at once.
    Returns -1 where no candidate is feasible.
    """
    rows = np.broadcast_arrays(
        *(
            np.atleast_1d(np.asarray(value, dtype=np.float64))
            for value in (
                capacity_bytes,
                block_bytes,
                latency_bound_ns,
                read_bandwidth_gbps,
                write_bandwidth_gbps,
            )
        )
    )
    chosen = np.empty(rows[0].shape, dtype=np.intp)
    for start in range(0, chosen.size, SEARCH_BLOCK_ROWS):
        block = slice(start, start + SEARCH_BLOCK_ROWS)
        chosen[block] = _search_block(
            tech, freq_ghz, *(value[block, np.newaxis] for value in rows)
        )
    return chosen


def _search_block(
    tech, freq_ghz, capacity, block, latency_bound, read_target, write_target
):
    """`search_lattice` for a (rows x 1) block against all candidates."""
    org = Organization(capacity, block, *_LATTICE)
    # One area per candidate; the latency and read energy take its banks'.
    area = sram_area_mm2(tech, org)
    bank_area = area / org.banks
    feasible = (
        (capacity >= org.banks * block)
        & (_access_latency_ns(tech, org, bank_area) <= latency_bound)
        & (sram_read_bandwidth_gbps(org, freq_ghz) >= read_target)
        & (sram_write_bandwidth_gbps(org, freq_ghz) >= write_target)
    )
    area = np.where(feasible, area, np.inf)
    smallest = feasible & (area == area.min(axis=1, keepdims=True))
    read_energy = np.where(
        smallest, _read_energy_pj(tech, org, bank_area), np.inf
    )
    return np.where(feasible.any(axis=1), read_energy.argmin(axis=1), -1)


def optimize_sram(requirements: SramRequirements, tech: TechNode) -> SramArray:
    """Search bank/port/subarray organizations and return the smallest one.

    Mirrors NeuroMeter's internal optimizer: every candidate must meet the
    latency bound and both bandwidth targets; ties in area break toward
    lower read energy.  Raises :class:`OptimizationError` when no candidate
    is feasible (e.g. an unreachable latency target).
    """
    (index,) = search_lattice(
        tech,
        requirements.freq_ghz,
        requirements.capacity_bytes,
        requirements.block_bytes,
        requirements.latency_bound_ns,
        requirements.target_read_bandwidth_gbps,
        requirements.target_write_bandwidth_gbps,
    )
    if index < 0:
        raise OptimizationError(
            f"no SRAM organization meets latency "
            f"{requirements.latency_bound_ns:.3f} ns and bandwidth "
            f"{requirements.target_read_bandwidth_gbps:.1f}R/"
            f"{requirements.target_write_bandwidth_gbps:.1f}W GB/s for "
            f"{requirements.capacity_bytes} bytes"
        )
    banks, read_ports, write_ports, rows = _LATTICE[:, index]
    return SramArray(
        capacity_bytes=requirements.capacity_bytes,
        block_bytes=requirements.block_bytes,
        banks=int(banks),
        read_ports=int(read_ports),
        write_ports=int(write_ports),
        subarray_rows=int(rows),
    )
