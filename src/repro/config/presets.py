"""Preset accelerator configurations.

The three validation chips use the exact architecture parameters the paper
lists under Figs. 3-5; the datacenter factory builds the ``(X, N, Tx, Ty)``
design points of Table I with all dependent parameters auto-scaled.
"""

from __future__ import annotations

import functools

from repro.arch.chip import Chip, ChipConfig, shape_of
from repro.arch.component import ModelContext
from repro.arch.core import CoreConfig, GridAxes
from repro.arch.memory import OnChipMemoryConfig
from repro.arch.periph import DramKind, InterChipInterconnect, PcieInterface
from repro.arch.tensor_unit import (
    Dataflow,
    InterconnectKind,
    SystolicCellConfig,
    TensorUnitConfig,
)
from repro.arch.vector_unit import VectorUnitConfig
from repro.datatypes import BF16, FP32, INT8, INT16
from repro.errors import ConfigurationError
from repro.tech.node import node
from repro.units import MiB

#: Table I datacenter constraints.
DATACENTER_TECH_NM = 28
DATACENTER_FREQ_GHZ = 0.70
DATACENTER_MEM_CAPACITY_BYTES = 32 * MiB
DATACENTER_NOC_BISECTION_GBPS = 256.0
DATACENTER_OFFCHIP_GBPS = 700.0
DATACENTER_AREA_BUDGET_MM2 = 500.0
DATACENTER_POWER_BUDGET_W = 300.0
DATACENTER_TOPS_CAP = 92.0

#: Smallest per-core Mem slice when the 32 MiB pool is split across cores.
DATACENTER_MEM_SLICE_FLOOR_BYTES = 64 * 1024


# -- TPU-v1 (Fig. 3): 28 nm, 700 MHz, 0.86 V -----------------------------------


def tpu_v1() -> Chip:
    """TPU-v1: 256x256 int8 systolic array, 24 MB UB, 4 MB accumulators."""
    tu = TensorUnitConfig(
        rows=256,
        cols=256,
        cell=SystolicCellConfig(input_dtype=INT8),
        interconnect=InterconnectKind.UNICAST,
        dataflow=Dataflow.WEIGHT_STATIONARY,
    )
    unified_buffer = OnChipMemoryConfig(
        capacity_bytes=24 * MiB,
        block_bytes=256,
        min_banks=2,
        latency_cycles=4,
    )
    accumulator_buffer = OnChipMemoryConfig(
        capacity_bytes=4 * MiB,
        block_bytes=1024,
        min_banks=4,
        read_bandwidth_gbps=1024 * 0.7,
        write_bandwidth_gbps=1024 * 0.7,
        latency_cycles=4,
    )
    weight_fifo = OnChipMemoryConfig(
        capacity_bytes=256 * 1024,
        block_bytes=256,
        read_bandwidth_gbps=256 * 0.7,
        latency_cycles=2,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=1,
        # The activation pipeline: 256 lanes with deep piecewise-function
        # hardware (activation, pooling, normalization).
        vu=VectorUnitConfig(
            lanes=256, dtype=INT16, sfu_gates=25_000, pipeline_depth=12
        ),
        mem=unified_buffer,
        extra_memories=(
            ("accumulator buffer", accumulator_buffer),
            ("weight fifo", weight_fifo),
        ),
        include_scalar_unit=True,
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=1,
            cores_y=1,
            dram=DramKind.DDR3,
            offchip_bandwidth_gbps=30.0,
            pcie=PcieInterface(lanes=16, generation=3),
            ici=None,
            # 21% unknown blocks + 5% unmodeled host/ctrl/misc (Sec. II-C).
            whitespace_fraction=0.26,
        )
    )


def tpu_v1_context() -> ModelContext:
    """28 nm at the published 0.86 V supply, 700 MHz target clock."""
    return ModelContext(tech=node(28).at_voltage(0.86), freq_ghz=0.70)


# -- TPU-v2 (Fig. 4): assumed 16 nm, 700 MHz, 0.75 V ---------------------------


def tpu_v2() -> Chip:
    """TPU-v2: dual cores, 128x128 bf16/fp32 MXU + 8 MB VMem per core."""
    tu = TensorUnitConfig(
        rows=128,
        cols=128,
        cell=SystolicCellConfig(input_dtype=BF16, accum_dtype=FP32),
        interconnect=InterconnectKind.UNICAST,
        dataflow=Dataflow.WEIGHT_STATIONARY,
    )
    vmem = OnChipMemoryConfig(
        capacity_bytes=8 * MiB,
        block_bytes=128,
        min_banks=4,
        read_bandwidth_gbps=2 * 128 * 0.7,
        write_bandwidth_gbps=128 * 0.7,
        latency_cycles=4,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=1,
        # TPU-v2's vector processing unit: 128x8 fp32 lanes per core.
        vu=VectorUnitConfig(
            lanes=1024, dtype=FP32, sfu_gates=6_000, pipeline_depth=6
        ),
        mem=vmem,
        include_scalar_unit=True,
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=2,
            cores_y=1,
            noc_bisection_gbps=256.0,
            dram=DramKind.HBM,
            offchip_bandwidth_gbps=600.0,
            pcie=PcieInterface(lanes=16, generation=3),
            ici=InterChipInterconnect(links=4, link_gbit_per_dir=496.0),
            # 21% unknown blocks (transpose/RPU/misc fall inside them).
            whitespace_fraction=0.21,
        )
    )


def tpu_v2_context() -> ModelContext:
    """Assumed 16 nm at the published 0.75 V supply, 700 MHz target clock."""
    return ModelContext(tech=node(16).at_voltage(0.75), freq_ghz=0.70)


# -- Eyeriss (Fig. 5): 65 nm, 200 MHz, 1.0 V -----------------------------------


def eyeriss() -> Chip:
    """Eyeriss-v1: 14x12 multicast PE array, 108 KB global buffer."""
    tu = TensorUnitConfig(
        rows=14,
        cols=12,
        cell=SystolicCellConfig(
            input_dtype=INT16,
            spad_bytes=448,
            reg_bytes=72,
            control_gates=2_000,
        ),
        interconnect=InterconnectKind.MULTICAST,
        fifo_depth=16,
    )
    global_buffer = OnChipMemoryConfig(
        capacity_bytes=108 * 1024,
        block_bytes=8,
        min_banks=27,
        unified=False,
        read_bandwidth_gbps=27 * 8 * 0.2,
        write_bandwidth_gbps=27 * 8 * 0.2,
        latency_cycles=2,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=1,
        # Run-length codec + ReLU path modeled as a narrow vector unit.
        vu=VectorUnitConfig(lanes=4, dtype=INT16),
        mem=global_buffer,
        include_scalar_unit=True,  # top-level control + config scan chain
        scalar_unit_scale=0.25,  # a bare controller, not an A9-class core
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=1,
            cores_y=1,
            dram=None,  # chip I/O pads are unmodeled, as in the paper
            pcie=None,
            ici=None,
            whitespace_fraction=0.08,
        )
    )


def eyeriss_context() -> ModelContext:
    """65 nm at 1.0 V, 200 MHz target clock."""
    return ModelContext(tech=node(65).at_voltage(1.0), freq_ghz=0.20)


# -- Table I datacenter design points ------------------------------------------


def datacenter_axes(
    tu_length: int,
    tus_per_core: int,
    cores_x: int,
    cores_y: int,
    mem_capacity_bytes: int = DATACENTER_MEM_CAPACITY_BYTES,
) -> GridAxes:
    """The per-point values of the ``(X, N, Tx, Ty)`` datacenter chip.

    Table I's dependent-parameter rule, written once: X x X TUs with X VU
    lanes, N TUs per core, and the memory pool split evenly across the
    ``Tx`` x ``Ty`` cores (at least 64 KiB per core) in blocks of
    ``max(X, 32)`` bytes.  Python numbers in, the same Python numbers
    out, so the values equal :func:`~repro.arch.chip.axes_of` of the
    built configuration in value and in type.
    """
    if tu_length < 1:
        raise ConfigurationError("TU length must be positive")
    cores = cores_x * cores_y
    if cores < 1:
        raise ConfigurationError("need at least one core")
    return GridAxes(
        tu_length,
        tu_length,
        tus_per_core,
        tu_length,
        max(mem_capacity_bytes // cores, DATACENTER_MEM_SLICE_FLOOR_BYTES),
        max(tu_length, 32),
        cores_x,
        cores_y,
    )


def datacenter_design_point(
    tu_length: int,
    tus_per_core: int,
    cores_x: int,
    cores_y: int,
    mem_capacity_bytes: int = DATACENTER_MEM_CAPACITY_BYTES,
) -> Chip:
    """Build the ``(X, N, Tx, Ty)`` datacenter inference chip of Table I.

    The TU, Mem slice and core grid come from :func:`datacenter_axes`;
    the NoC is a ring up to 4 cores and a 2D mesh from 8 (resolved by
    ``ChipConfig``), and the VU lanes, VReg ports and Mem bandwidth
    auto-scale from ``X`` and ``N``.
    """
    values = datacenter_axes(
        tu_length, tus_per_core, cores_x, cores_y, mem_capacity_bytes
    )
    tu = TensorUnitConfig(
        rows=values.tu_rows,
        cols=values.tu_cols,
        cell=SystolicCellConfig(input_dtype=INT8),
        interconnect=InterconnectKind.UNICAST,
        dataflow=Dataflow.WEIGHT_STATIONARY,
    )
    mem = OnChipMemoryConfig(
        capacity_bytes=values.mem_capacity_bytes,
        block_bytes=values.mem_block_bytes,
        latency_cycles=4,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=values.tensor_units,
        mem=mem,
        include_scalar_unit=True,
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=values.cores_x,
            cores_y=values.cores_y,
            noc_bisection_gbps=DATACENTER_NOC_BISECTION_GBPS,
            dram=DramKind.HBM2,
            offchip_bandwidth_gbps=DATACENTER_OFFCHIP_GBPS,
            pcie=PcieInterface(lanes=16, generation=3),
            ici=None,
        )
    )


@functools.cache
def datacenter_shape() -> ChipConfig:
    """The shape every datacenter design point shares, from one build
    (:func:`~repro.arch.chip.shape_of`); with :func:`datacenter_axes` it
    is ``split_config`` of any point's configuration."""
    return shape_of(datacenter_design_point(1, 1, 1, 1).config)


def datacenter_context() -> ModelContext:
    """Table I: 28 nm, 700 MHz."""
    return ModelContext(
        tech=node(DATACENTER_TECH_NM), freq_ghz=DATACENTER_FREQ_GHZ
    )


# -- training accelerators (the paper's declared future work) -------------------


def datacenter_training_point(
    tu_length: int,
    tus_per_core: int,
    cores_x: int,
    cores_y: int,
) -> Chip:
    """A TPU-v2-class *training* design point.

    Same ``(X, N, Tx, Ty)`` structure as the inference space but with
    bf16 multipliers accumulating in fp32, a larger fp32-capable vector
    unit, more on-chip memory per core, doubled HBM bandwidth, and ICI
    links for pod-scale training.
    """
    if tu_length < 1:
        raise ConfigurationError("TU length must be positive")
    cores = cores_x * cores_y
    if cores < 1:
        raise ConfigurationError("need at least one core")
    tu = TensorUnitConfig(
        rows=tu_length,
        cols=tu_length,
        cell=SystolicCellConfig(input_dtype=BF16, accum_dtype=FP32),
        interconnect=InterconnectKind.UNICAST,
        dataflow=Dataflow.WEIGHT_STATIONARY,
    )
    mem = OnChipMemoryConfig(
        capacity_bytes=max((64 * MiB) // cores, 256 * 1024),
        block_bytes=max(tu_length * 2, 64),
        latency_cycles=4,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=tus_per_core,
        vu=VectorUnitConfig(
            lanes=max(tu_length * 2, 32), dtype=FP32, sfu_gates=6_000
        ),
        mem=mem,
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=cores_x,
            cores_y=cores_y,
            noc_bisection_gbps=2 * DATACENTER_NOC_BISECTION_GBPS,
            dram=DramKind.HBM2,
            offchip_bandwidth_gbps=2 * DATACENTER_OFFCHIP_GBPS,
            pcie=PcieInterface(lanes=16, generation=3),
            ici=InterChipInterconnect(links=4, link_gbit_per_dir=496.0),
        )
    )


def training_context() -> ModelContext:
    """Training chips assume the TPU-v2-era 16 nm node at 700 MHz."""
    return ModelContext(tech=node(16), freq_ghz=0.70)
