"""Edge-inference design space (the intro's "cloud to edge" breadth).

The paper's case study covers the datacenter end; this module applies the
same methodology at the edge operating point: a few-watt TDP budget, tens
of mm^2 of silicon, LPDDR-class off-chip bandwidth, and MobileNet-class
workloads.  The design knobs are the same (TU length, TUs per core, core
count), just smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.chip import Chip, ChipConfig
from repro.arch.component import ModelContext
from repro.arch.core import CoreConfig
from repro.arch.memory import OnChipMemoryConfig
from repro.arch.periph import DramKind, PcieInterface
from repro.arch.tensor_unit import SystolicCellConfig, TensorUnitConfig
from repro.datatypes import INT8
from repro.errors import ConfigurationError
from repro.perf.graph import Graph
from repro.perf.simulator import Simulator
from repro.power.runtime import runtime_power
from repro.tech.node import node
from repro.units import MiB

#: Edge budget: area and power of a phone/camera-class accelerator block.
EDGE_AREA_BUDGET_MM2 = 25.0
EDGE_POWER_BUDGET_W = 4.0
EDGE_TECH_NM = 16
EDGE_FREQ_GHZ = 0.8
EDGE_MEM_BYTES = 2 * MiB
EDGE_OFFCHIP_GBPS = 12.8  # one LPDDR4x channel

EDGE_TU_LENGTHS = (4, 8, 16, 32)
EDGE_TUS_PER_CORE = (1, 2)
EDGE_CORE_GRIDS = ((1, 1), (1, 2), (2, 2))


def edge_design_point(
    tu_length: int, tus_per_core: int, cores_x: int, cores_y: int
) -> Chip:
    """Build one edge design point (int8 TUs, LPDDR-class interfaces)."""
    if tu_length < 1:
        raise ConfigurationError("TU length must be positive")
    cores = cores_x * cores_y
    if cores < 1:
        raise ConfigurationError("need at least one core")
    tu = TensorUnitConfig(
        rows=tu_length,
        cols=tu_length,
        cell=SystolicCellConfig(input_dtype=INT8),
    )
    mem = OnChipMemoryConfig(
        capacity_bytes=max(EDGE_MEM_BYTES // cores, 128 * 1024),
        block_bytes=max(tu_length, 16),
        latency_cycles=4,
    )
    core = CoreConfig(
        tu=tu,
        tensor_units=tus_per_core,
        mem=mem,
        scalar_unit_scale=0.5,
    )
    return Chip(
        ChipConfig(
            core=core,
            cores_x=cores_x,
            cores_y=cores_y,
            noc_bisection_gbps=32.0,
            dram=DramKind.DDR4,
            offchip_bandwidth_gbps=EDGE_OFFCHIP_GBPS,
            pcie=PcieInterface(lanes=1, generation=3),
        )
    )


def edge_context() -> ModelContext:
    """The edge operating point: 16 nm at 800 MHz."""
    return ModelContext(tech=node(EDGE_TECH_NM), freq_ghz=EDGE_FREQ_GHZ)


@dataclass(frozen=True)
class EdgePointResult:
    """One edge design point under one workload.

    Attributes:
        label: The (X, N, Tx, Ty) label.
        area_mm2 / tdp_w / peak_tops: Chip-level numbers.
        fps: Frames per second at batch 1 (edge inference is latency
            driven, batch 1 throughout).
        latency_ms: Per-frame latency.
        runtime_power_w: Power while running the workload.
        fps_per_watt: The edge figure of merit.
    """

    label: str
    area_mm2: float
    tdp_w: float
    peak_tops: float
    fps: float
    latency_ms: float
    runtime_power_w: float

    @property
    def fps_per_watt(self) -> float:
        return self.fps / self.runtime_power_w

    def fits_budget(self) -> bool:
        return (
            self.area_mm2 <= EDGE_AREA_BUDGET_MM2
            and self.tdp_w <= EDGE_POWER_BUDGET_W
        )


def evaluate_edge_point(
    tu_length: int,
    tus_per_core: int,
    cores_x: int,
    cores_y: int,
    workload: Graph,
    ctx: Optional[ModelContext] = None,
) -> EdgePointResult:
    """Model + simulate one edge point at batch 1."""
    ctx = ctx if ctx is not None else edge_context()
    chip = edge_design_point(tu_length, tus_per_core, cores_x, cores_y)
    result = Simulator(chip, ctx).run(workload, batch=1, per_layer=False)
    power = runtime_power(chip, ctx, result.activity).total_w
    return EdgePointResult(
        label=f"({tu_length},{tus_per_core},{cores_x},{cores_y})",
        area_mm2=chip.area_mm2(ctx),
        tdp_w=chip.tdp_w(ctx),
        peak_tops=chip.peak_tops(ctx),
        fps=result.throughput_fps,
        latency_ms=result.latency_ms,
        runtime_power_w=power,
    )


def edge_sweep(
    workload: Graph,
    ctx: Optional[ModelContext] = None,
    tu_lengths: Sequence[int] = EDGE_TU_LENGTHS,
) -> list[EdgePointResult]:
    """Sweep the edge space, keeping only points inside the budget."""
    ctx = ctx if ctx is not None else edge_context()
    results = []
    for x in tu_lengths:
        for n in EDGE_TUS_PER_CORE:
            for cores_x, cores_y in EDGE_CORE_GRIDS:
                result = evaluate_edge_point(
                    x, n, cores_x, cores_y, workload, ctx
                )
                if result.fits_budget():
                    results.append(result)
    return results
