"""Tensor Unit (TU): the systolic-array compute engine.

Per Sec. II-A, a TU is (1) an array of systolic cells — each a MAC plus a
DFF- or SRAM-based local buffer, (2) the wires between neighbouring cells,
and (3) DFF-based I/O FIFOs.  Two inner-TU interconnects are modeled:

* ``UNICAST`` — nearest-neighbour systolic links (TPU-v1 style), supporting
  weight-stationary and output-stationary dataflows, and
* ``MULTICAST`` — X/Y buses from the I/O FIFOs to every cell (Eyeriss
  style), whose bus is abstracted into the pi-RC model for timing.

The closed forms are module functions of the cell configuration and the
array shape; ``rows`` and ``cols`` broadcast, so the batch kernels
evaluate the same functions over whole grids of TU lengths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.dff import (
    DffBank,
    dff_active_energy_pj,
    dff_area_mm2,
    dff_leakage_w,
)
from repro.circuit.gates import logic_energy_pj, logic_leakage_w
from repro.circuit.mac import MacModel
from repro.circuit.rc import ladder_delay_ns
from repro.circuit.sram import SramArray
from repro.datatypes import INT8, DataType
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.node import TechNode
from repro.tech.wire import WireType, wire_energy_pj_per_bit, wire_params
from repro.units import (
    dynamic_power_w,
    fj_to_pj,
    mm2_to_um2,
    um2_to_mm2,
    um_to_mm,
)


#: Placement overhead of the distributed I/O FIFO lanes.
FIFO_PLACEMENT_OVERHEAD = 1.15


class InterconnectKind(enum.Enum):
    """Inner-TU interconnection style (Fig. 2(c))."""

    UNICAST = "unicast"
    MULTICAST = "multicast"


class Dataflow(enum.Enum):
    """Systolic dataflow for unicast TUs."""

    WEIGHT_STATIONARY = "weight_stationary"
    OUTPUT_STATIONARY = "output_stationary"


@dataclass(frozen=True)
class SystolicCellConfig:
    """One systolic cell (SC).

    Attributes:
        input_dtype: Multiplier operand type.
        accum_dtype: Accumulator type; ``None`` picks the MAC default
            (int32 for integer inputs, fp32 for float inputs).
        spad_bytes: SRAM scratchpad inside the cell (Eyeriss-style PEs;
            0 for plain systolic cells).
        reg_bytes: Register-file bytes inside the cell beyond the pipeline
            registers (Eyeriss carries 72 B).
        control_gates: Per-cell control logic (larger for PEs that run
            their own dataflow control).
    """

    input_dtype: DataType = INT8
    accum_dtype: DataType = None  # type: ignore[assignment]
    spad_bytes: int = 0
    reg_bytes: int = 0
    control_gates: int = 150

    def __post_init__(self) -> None:
        if self.spad_bytes < 0 or self.reg_bytes < 0 or self.control_gates < 0:
            raise ConfigurationError("systolic cell sizes must be >= 0")

    @property
    def mac(self) -> MacModel:
        """The cell's multiply-accumulate unit."""
        if self.accum_dtype is None:
            return MacModel(self.input_dtype)
        return MacModel(self.input_dtype, self.accum_dtype)

    @property
    def pipeline_bits(self) -> int:
        """DFF bits for the systolic pipeline (weight + operand + psum)."""
        mac = self.mac
        return 2 * self.input_dtype.bits + mac.accum_dtype.bits


@dataclass(frozen=True)
class TensorUnitConfig:
    """A full tensor unit.

    Attributes:
        rows: Systolic array height (the paper's TU length ``X``).
        cols: Systolic array width.
        cell: Systolic cell configuration.
        interconnect: Inner-TU interconnect kind.
        dataflow: Dataflow for unicast arrays.
        fifo_depth: Entries per I/O FIFO lane.
    """

    rows: int
    cols: int
    cell: SystolicCellConfig = field(default_factory=SystolicCellConfig)
    interconnect: InterconnectKind = InterconnectKind.UNICAST
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    fifo_depth: int = 8

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"tensor unit must be at least 1x1, got {self.rows}x{self.cols}"
            )
        if self.fifo_depth < 1:
            raise ConfigurationError("FIFO depth must be >= 1")

    @property
    def macs(self) -> int:
        """MAC units in the array."""
        return self.rows * self.cols

    @property
    def fill_drain_cycles(self) -> int:
        """Pipeline fill + drain latency of the systolic wavefront."""
        return self.rows + self.cols


# -- closed forms (``rows``/``cols`` broadcast) ----------------------------


def _spad(cell: SystolicCellConfig) -> SramArray:
    spad_bytes = cell.spad_bytes
    return SramArray(
        capacity_bytes=max(spad_bytes, 8),
        block_bytes=2,
        banks=1,
        subarray_rows=max(8, min(64, spad_bytes // 2 or 8)),
    )


def _span_wiring_factor(rows, cols):
    """Extra per-cell track overhead for operand/clock spines.

    Grows with the array span: distributing operands across a 256x256
    array needs far more wiring per cell than across a 14x12 one.
    """
    return 1.0 + calibration.ARRAY_SPAN_WIRING_COEF * (rows + cols)


def _span_energy_factor(rows, cols):
    """Operand-delivery energy scaling with the array span.

    Normalized to 1.0 at the TPU-v1 anchor span (512 = 256 + 256), so
    the chip-level calibration is untouched; smaller arrays move
    operands over shorter spines and pay less per cell.
    """
    floor = calibration.ARRAY_SPAN_ENERGY_FLOOR
    scale = np.minimum((rows + cols) / calibration.ARRAY_SPAN_ENERGY_NORM, 2.0)
    return floor + (1.0 - floor) * scale


def cell_area_mm2(tech: TechNode, cell: SystolicCellConfig, rows, cols):
    """Area of one systolic cell including intra-array routing."""
    area_um2 = cell.mac.area_um2(tech)
    area_um2 += cell.pipeline_bits * tech.dff_area_um2
    # Local register storage uses dense custom register-file cells, not
    # standard-cell flops (Eyeriss-style PEs carry 72 B of these).
    area_um2 += cell.reg_bytes * 8 * tech.sram_cell_um2 * 6.0
    area_um2 += cell.control_gates * tech.gate_area_um2
    if cell.spad_bytes:
        area_um2 += mm2_to_um2(_spad(cell).area_mm2(tech))
    return (
        um2_to_mm2(area_um2)
        * calibration.DATAPATH_ROUTING_OVERHEAD
        * _span_wiring_factor(rows, cols)
    )


def cell_energy_pj(tech: TechNode, cell: SystolicCellConfig) -> float:
    """Energy of one cell doing one MAC step (registers included)."""
    energy = cell.mac.energy_per_mac_pj(tech)
    energy += dff_active_energy_pj(tech, cell.pipeline_bits)
    if cell.reg_bytes:
        # Dense RF storage: ~two word accesses per MAC step, not a
        # whole-bank toggle.
        word_bits = cell.input_dtype.bits
        energy += fj_to_pj(2 * word_bits * tech.dff_energy_fj * 0.4)
    if cell.spad_bytes:
        spad = _spad(cell)
        # One small-word read + write per MAC step on average.
        energy += 0.5 * (spad.read_energy_pj(tech) + spad.write_energy_pj(tech))
    energy += logic_energy_pj(tech, cell.control_gates, 0.2)
    return energy


def _cell_leakage_w(tech: TechNode, cell: SystolicCellConfig) -> float:
    leakage = cell.mac.leakage_w(tech)
    leakage += dff_leakage_w(tech, cell.pipeline_bits)
    leakage += cell.reg_bytes * 8 * tech.sram_bit_leak_nw * 2e-9
    leakage += logic_leakage_w(tech, cell.control_gates)
    if cell.spad_bytes:
        leakage += _spad(cell).leakage_w(tech)
    return leakage


def _fifo_bits(config: TensorUnitConfig, rows, cols):
    """I/O FIFO flops: one input lane per row, operand + psum per column."""
    in_bits = config.cell.input_dtype.bits
    out_bits = config.cell.mac.accum_dtype.bits
    lane_bits = rows * in_bits + cols * (in_bits + out_bits)
    return lane_bits * config.fifo_depth


def _interconnect_energy_pj(
    tech: TechNode, config: TensorUnitConfig, rows, cols, pitch_mm
):
    """Per-cycle energy of the inner-TU interconnect at full activity."""
    wire = wire_params(tech, WireType.LOCAL)
    in_bits = config.cell.input_dtype.bits
    out_bits = config.cell.mac.accum_dtype.bits
    if config.interconnect is InterconnectKind.UNICAST:
        # Operands hop one pitch right, partial sums one pitch down.
        hops = rows * cols * (in_bits + out_bits)
        return hops * wire_energy_pj_per_bit(tech, wire, pitch_mm)
    # Multicast: each row/column bus spans the array; one operand
    # delivery drives the full bus.
    row_bus_mm = cols * pitch_mm
    col_bus_mm = rows * pitch_mm
    avg_bus_mm = (row_bus_mm + col_bus_mm) / 2.0
    bus = rows * in_bits * wire_energy_pj_per_bit(
        tech, wire, row_bus_mm
    ) + cols * in_bits * wire_energy_pj_per_bit(tech, wire, col_bus_mm)
    # Output collection over the average bus span.
    bus += cols * out_bits * wire_energy_pj_per_bit(tech, wire, avg_bus_mm)
    return bus


def multicast_bus_delay_ns(tech: TechNode, rows, cols, pitch_mm):
    """Elmore delay of the longest X/Y multicast bus (pi-RC segments).

    The FIFO output driver is the source resistance and every cell tap
    adds a gate load along the distributed wire, exactly the
    decomposition of Fig. 2(d).
    """
    wire = wire_params(tech, WireType.LOCAL)
    span = np.maximum(rows, cols)
    length_mm = span * pitch_mm
    taps_ff = span * tech.gate_cap_ff * 2.0
    return ladder_delay_ns(
        total_resistance_ohm=length_mm * wire.r_ohm_per_mm,
        total_capacitance_ff=length_mm * wire.c_ff_per_mm + taps_ff,
        driver_ohm=1_500.0,
    )


def energy_per_active_cycle_pj(
    tech: TechNode, config: TensorUnitConfig, rows, cols
):
    """Whole-TU energy on a fully active cycle (clock tree included).

    ``config`` supplies the cell, FIFO depth and interconnect; ``rows``
    and ``cols`` (numbers or arrays) give the array shape.
    """
    pitch_mm = np.sqrt(cell_area_mm2(tech, config.cell, rows, cols))
    cells = rows * cols * cell_energy_pj(tech, config.cell)
    fifo = dff_active_energy_pj(tech, _fifo_bits(config, rows, cols))
    wires = _interconnect_energy_pj(tech, config, rows, cols, pitch_mm)
    return (
        (cells * _span_energy_factor(rows, cols) + fifo + wires)
        * calibration.CLOCK_NETWORK_OVERHEAD
    )


def tensor_unit_terms(
    ctx: ModelContext, config: TensorUnitConfig, rows, cols
) -> tuple[Terms, Terms, Terms]:
    """Cell array, I/O FIFO and inner-TU interconnect of one TU.

    ``config`` supplies everything but the array shape, which ``rows``
    and ``cols`` give (numbers or arrays).
    """
    tech = ctx.tech
    cell = config.cell
    activity = calibration.TDP_ACTIVITY["compute"]
    overhead = calibration.CLOCK_NETWORK_OVERHEAD
    macs = rows * cols
    cell_mm2 = cell_area_mm2(tech, cell, rows, cols)
    pitch_mm = np.sqrt(cell_mm2)

    array = Terms(
        name="systolic cells",
        area_mm2=macs * cell_mm2,
        dynamic_w=dynamic_power_w(
            macs
            * cell_energy_pj(tech, cell)
            * _span_energy_factor(rows, cols)
            * overhead,
            ctx.freq_ghz,
        )
        * activity,
        leakage_w=macs * _cell_leakage_w(tech, cell),
        cycle_time_ns=cell.mac.delay_ns(tech)
        + DffBank("sc", 1).setup_plus_clk_to_q_ns(tech),
    )

    fifo_bits = _fifo_bits(config, rows, cols)
    fifo = Terms(
        name="io fifo",
        area_mm2=dff_area_mm2(tech, fifo_bits) * FIFO_PLACEMENT_OVERHEAD,
        dynamic_w=dynamic_power_w(
            dff_active_energy_pj(tech, fifo_bits) * overhead, ctx.freq_ghz
        )
        * activity,
        leakage_w=dff_leakage_w(tech, fifo_bits),
    )

    wire = wire_params(tech, WireType.LOCAL)
    in_bits = cell.input_dtype.bits
    out_bits = cell.mac.accum_dtype.bits
    track_mm2 = um_to_mm(wire.pitch_um) * pitch_mm
    interconnect = Terms(
        name="inner-tu interconnect",
        area_mm2=macs * (in_bits + out_bits) * track_mm2,
        dynamic_w=dynamic_power_w(
            _interconnect_energy_pj(tech, config, rows, cols, pitch_mm)
            * overhead,
            ctx.freq_ghz,
        )
        * calibration.TDP_ACTIVITY["interconnect"],
        leakage_w=0.0,
        cycle_time_ns=(
            multicast_bus_delay_ns(tech, rows, cols, pitch_mm)
            if config.interconnect is InterconnectKind.MULTICAST
            else 0.0
        ),
    )
    return array, fifo, interconnect


class TensorUnit:
    """Analytical power/area/timing model of one tensor unit."""

    def __init__(self, config: TensorUnitConfig):
        self.config = config

    # -- geometry ------------------------------------------------------------

    def cell_area_mm2(self, ctx: ModelContext) -> float:
        """Area of one systolic cell including intra-array routing."""
        cfg = self.config
        return float(cell_area_mm2(ctx.tech, cfg.cell, cfg.rows, cfg.cols))

    def array_area_mm2(self, ctx: ModelContext) -> float:
        """Area of the cell array alone."""
        return self.config.macs * self.cell_area_mm2(ctx)

    # -- energy ------------------------------------------------------------

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """Whole-TU energy on a fully active cycle (clock tree included)."""
        cfg = self.config
        return float(
            energy_per_active_cycle_pj(ctx.tech, cfg, cfg.rows, cfg.cols)
        )

    def energy_per_mac_pj(self, ctx: ModelContext) -> float:
        """Average energy per MAC at full array utilization."""
        return self.energy_per_active_cycle_pj(ctx) / self.config.macs

    # -- timing ------------------------------------------------------------

    def cycle_time_ns(self, ctx: ModelContext) -> float:
        """Minimum clock period of the TU."""
        return self.estimate(ctx).cycle_time_ns

    def multicast_bus_delay_ns(self, ctx: ModelContext) -> float:
        """Elmore delay of the longest X/Y multicast bus (pi-RC segments)."""
        cfg = self.config
        pitch_mm = np.sqrt(self.cell_area_mm2(ctx))
        return float(
            multicast_bus_delay_ns(ctx.tech, cfg.rows, cfg.cols, pitch_mm)
        )

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full TU estimate with cell-array / FIFO / interconnect children."""
        cfg = self.config
        return Estimate.compose(
            "tensor unit",
            [
                part.estimate()
                for part in tensor_unit_terms(ctx, cfg, cfg.rows, cfg.cols)
            ],
        )
