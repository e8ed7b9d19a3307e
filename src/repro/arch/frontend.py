"""Core front-end blocks: Instruction Fetch Unit and Load-Store Unit.

Per Sec. II-A, the IFU of an ML accelerator is deliberately lightweight
(no branch prediction, wide fixed-format instructions fetched from a small
buffer), and the LSU owns the data/control paths between the execution
units, the on-chip memory, and the off-chip interface (DMA descriptors,
address generation, outstanding-transfer tracking).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.component import Estimate, ModelContext, Terms, cached_estimate
from repro.circuit.gates import (
    LogicBlock,
    logic_area_mm2,
    logic_delay_ns,
    logic_energy_pj,
    logic_leakage_w,
)
from repro.circuit.sram import SramArray
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import dynamic_power_w

IFU_CONTROL_GATES = 12_000
LSU_GATES_PER_QUEUE_ENTRY = 900

#: LSU datapath muxing gates per datapath bit.
LSU_DATAPATH_GATES_PER_BIT = 30


@dataclass(frozen=True)
class InstructionFetchUnit:
    """Lightweight VLIW-style instruction fetch.

    Attributes:
        instruction_bytes: Width of one (wide) instruction word.
        buffer_entries: Instructions held in the fetch buffer.
    """

    instruction_bytes: int = 32
    buffer_entries: int = 256

    def __post_init__(self) -> None:
        if self.instruction_bytes < 1 or self.buffer_entries < 1:
            raise ConfigurationError("IFU sizes must be positive")

    def _buffer(self) -> SramArray:
        return SramArray(
            capacity_bytes=self.instruction_bytes * self.buffer_entries,
            block_bytes=self.instruction_bytes,
            subarray_rows=64,
        )

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Fetch buffer plus sequencing control."""
        tech = ctx.tech
        buffer = self._buffer()
        control = LogicBlock("ifu-ctrl", IFU_CONTROL_GATES)
        energy = (
            buffer.read_energy_pj(tech) * 0.5
            + control.energy_per_cycle_pj(tech)
        ) * calibration.CLOCK_NETWORK_OVERHEAD
        return Estimate(
            name="instruction fetch unit",
            area_mm2=buffer.area_mm2(tech) + control.area_mm2(tech),
            dynamic_w=dynamic_power_w(energy, ctx.freq_ghz)
            * calibration.TDP_ACTIVITY["control"],
            leakage_w=buffer.leakage_w(tech) + control.leakage_w(tech),
            cycle_time_ns=control.delay_ns(tech),
        )


def lsu_terms(ctx: ModelContext, queue_entries: int, datapath_bytes) -> Terms:
    """Descriptor queue plus datapath control; ``datapath_bytes`` broadcasts."""
    tech = ctx.tech
    gates = (
        queue_entries * LSU_GATES_PER_QUEUE_ENTRY
        + datapath_bytes * 8 * LSU_DATAPATH_GATES_PER_BIT
    )
    energy = logic_energy_pj(tech, gates, 0.15) * (
        calibration.CLOCK_NETWORK_OVERHEAD
    )
    return Terms(
        name="load-store unit",
        area_mm2=logic_area_mm2(tech, gates),
        dynamic_w=dynamic_power_w(energy, ctx.freq_ghz)
        * calibration.TDP_ACTIVITY["control"],
        leakage_w=logic_leakage_w(tech, gates),
        cycle_time_ns=logic_delay_ns(tech),
    )


@dataclass(frozen=True)
class LoadStoreUnit:
    """Data movement engine between Mem, the EXU, and off-chip memory.

    Attributes:
        queue_entries: Outstanding transfer descriptors tracked.
        datapath_bytes: Width of the load/store datapath in bytes; scaled
            by the core model to match the TU operand bandwidth.
    """

    queue_entries: int = 32
    datapath_bytes: int = 64

    def __post_init__(self) -> None:
        if self.queue_entries < 1 or self.datapath_bytes < 1:
            raise ConfigurationError("LSU sizes must be positive")

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Descriptor queue plus datapath control."""
        return lsu_terms(
            ctx, self.queue_entries, self.datapath_bytes
        ).estimate()
