"""The graph-level performance simulator (TF-Sim substitute).

Walks a computational graph layer by layer: GEMM-shaped layers go through
the systolic mapping engine, vector-shaped layers (pooling, activations,
depthwise convolutions, eltwise) run on the vector units, and every layer's
time is the max of its compute, on-chip memory, NoC, and off-chip bound
(double buffering overlaps them).  The output carries end-to-end latency,
throughput, achieved TOPS, TU utilization, and the per-component activity
factors the runtime power model consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.errors import MappingError
from repro.perf.graph import Graph, LayerNode
from repro.perf.mapping import ArchView, map_gemm
from repro.perf.ops import (
    Activation,
    Conv2d,
    DepthwiseConv2d,
    Elementwise,
    Gemm,
    GlobalPool,
    Operator,
    Pool,
)
from repro.perf.optimizations import (
    OptimizationConfig,
    apply_space_to_depth,
)
from repro.power.runtime import ActivityFactors
from repro.units import GIGA, OPS_PER_MAC

#: Fraction of on-chip memory usable for activations (the rest stages
#: weights and double buffers).
_ACTIVATION_MEM_SHARE = 0.5

#: Real-time SLO used throughout the paper's datacenter study.
DEFAULT_LATENCY_SLO_MS = 10.0

#: Packed-SIMD elements per 32-bit VU lane per cycle: pointwise int8 ops
#: pack 4 per lane; 16-bit depthwise taps pack 2; 32-bit partial-sum
#: merges pack 1.
_POINTWISE_SIMD = 4
_DEPTHWISE_SIMD = 2


def _vector_simd(op: Operator) -> int:
    if isinstance(op, DepthwiseConv2d):
        return _DEPTHWISE_SIMD
    if isinstance(op, (Activation, Elementwise, Pool, GlobalPool)):
        return _POINTWISE_SIMD
    return 1


def _fusable(op: Operator) -> bool:
    """Pointwise layers that fuse into the preceding GEMM's drain path."""
    return isinstance(op, (Activation, Elementwise))

#: Batch sizes scanned for the latency-limited ("medium") batch.
BATCH_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class LayerTiming:
    """Per-layer simulation record."""

    name: str
    cycles: int
    bound: str
    useful_macs: int
    vector_ops: int


@dataclass(frozen=True)
class SimulationResult:
    """End-to-end result of running a graph at one batch size.

    Attributes:
        graph_name: Workload name.
        batch: Batch size simulated.
        total_cycles: Chip cycles for the whole batch.
        latency_s: Wall-clock time for the batch.
        throughput_fps: Frames per second.
        achieved_tops: Sustained tera-ops/s (2 ops per MAC).
        peak_tops: The chip's peak TOPS.
        activity: Activity factors for the runtime power model.
        layers: Per-layer records (diagnostics).
    """

    graph_name: str
    batch: int
    total_cycles: int
    latency_s: float
    throughput_fps: float
    achieved_tops: float
    peak_tops: float
    activity: ActivityFactors
    layers: tuple[LayerTiming, ...] = field(default_factory=tuple)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def utilization(self) -> float:
        """Achieved / peak TOPS (the paper's TU-utilization metric)."""
        if self.peak_tops <= 0:
            return 0.0
        return self.achieved_tops / self.peak_tops


class Simulator:
    """Graph-level performance simulator for one chip configuration."""

    def __init__(
        self,
        chip: Chip,
        ctx: ModelContext,
        opt: Optional[OptimizationConfig] = None,
    ):
        self.chip = chip
        self.ctx = ctx
        self.opt = opt if opt is not None else OptimizationConfig.all_on()
        self.arch = ArchView.of(chip, ctx)

    # -- helpers ------------------------------------------------------------

    def _to_cycles(self, bytes_moved: float, bandwidth_gbps: float) -> int:
        """Cycles to move ``bytes_moved`` at ``bandwidth_gbps``."""
        if bytes_moved <= 0:
            return 0
        if bandwidth_gbps <= 0:
            raise MappingError("traffic on a zero-bandwidth path")
        seconds = bytes_moved / (bandwidth_gbps * GIGA)
        return int(math.ceil(seconds * self.arch.freq_ghz * GIGA))

    def _layer_gemm(self, layer: LayerNode, batch: int) -> Optional[Gemm]:
        cost = layer.cost()
        if cost.gemm is None:
            return None
        gemm = cost.gemm.scaled_m(batch)
        if self.opt.space_to_depth and isinstance(layer.op, Conv2d):
            gemm = apply_space_to_depth(
                gemm,
                input_channels=layer.input_shape[2],
                stride=layer.op.stride,
            )
        return gemm

    # -- main entry ------------------------------------------------------------

    def run(self, graph: Graph, batch: int = 1) -> SimulationResult:
        """Simulate one batch of ``graph`` end to end."""
        if batch < 1:
            raise MappingError(f"batch must be >= 1, got {batch}")
        arch = self.arch
        weights_bytes = graph.total_params_bytes()
        weights_resident = weights_bytes <= (
            arch.mem_capacity_bytes * (1 - _ACTIVATION_MEM_SHARE)
        )
        activation_budget = arch.mem_capacity_bytes * _ACTIVATION_MEM_SHARE

        total_cycles = 0
        tu_macs = 0
        occupied_mac_cycles = 0
        vector_ops_total = 0
        mem_bytes = [0.0, 0.0]  # reads, writes
        noc_bytes = 0.0
        offchip_bytes = 0.0
        layer_records: list[LayerTiming] = []
        fusion_credit = 0  # spare cycles of the previous GEMM layer

        for layer in graph:
            cost = layer.cost()
            gemm = self._layer_gemm(layer, batch)
            vector_ops = cost.vector_ops * batch
            layer_offchip = 0.0
            if not weights_resident:
                # Weights stream in once per batch (they are reused across
                # every sample of the layer-wise schedule).
                layer_offchip += cost.params_bytes
            # Layer-wise working set beyond the on-chip activation budget
            # spills to DRAM (and comes back for the next layer).
            working_set = (cost.input_bytes + cost.output_bytes) * batch
            layer_offchip += 2.0 * max(0.0, working_set - activation_budget)

            if gemm is not None:
                mapping = map_gemm(gemm, arch, self.opt)
                vector_ops += mapping.merge_vector_ops
                vu_cycles = math.ceil(
                    mapping.merge_vector_ops / max(arch.vu_lanes_total, 1)
                    + cost.vector_ops
                    * batch
                    / max(arch.vu_lanes_total * _POINTWISE_SIMD, 1)
                )
                bounds = {
                    "compute": mapping.compute_cycles,
                    "vector": vu_cycles,
                    "mem-read": self._to_cycles(
                        mapping.mem_read_bytes, arch.mem_read_gbps
                    ),
                    "mem-write": self._to_cycles(
                        mapping.mem_write_bytes, arch.mem_write_gbps
                    ),
                    "offchip": self._to_cycles(
                        layer_offchip, arch.offchip_gbps
                    ),
                }
                if arch.cores > 1:
                    bounds["noc"] = self._to_cycles(
                        mapping.noc_bytes, arch.noc_gbps
                    )
                    noc_bytes += mapping.noc_bytes
                mem_bytes[0] += mapping.mem_read_bytes
                mem_bytes[1] += mapping.mem_write_bytes
                tu_macs += mapping.useful_macs
                occupied_mac_cycles += mapping.occupied_mac_cycles
            else:
                simd = _vector_simd(layer.op) if layer.op else 1
                vu_cycles = math.ceil(
                    vector_ops / max(arch.vu_lanes_total * simd, 1)
                )
                if layer.op is not None and _fusable(layer.op):
                    # Pointwise layers drain through the previous GEMM's
                    # output path; only the residue beyond its spare VU
                    # time costs extra cycles.
                    consumed = min(vu_cycles, fusion_credit)
                    fusion_credit -= consumed
                    vu_cycles -= consumed
                reads = (cost.input_bytes + cost.params_bytes) * batch
                writes = cost.output_bytes * batch
                bounds = {
                    "vector": vu_cycles,
                    "mem-read": self._to_cycles(reads, arch.mem_read_gbps),
                    "mem-write": self._to_cycles(
                        writes, arch.mem_write_gbps
                    ),
                    "offchip": self._to_cycles(
                        layer_offchip, arch.offchip_gbps
                    ),
                }
                mem_bytes[0] += reads
                mem_bytes[1] += writes

            if self.opt.double_buffering:
                cycles = max(bounds.values())
            else:
                # Without double buffering, data movement serializes with
                # compute.
                movement = sum(
                    v for k, v in bounds.items() if k != "compute"
                )
                cycles = bounds.get("compute", 0) + movement
            # Fused pointwise residues ride the pipeline; everything else
            # pays the serial layer-launch cost.
            if gemm is not None or not (
                layer.op is not None and _fusable(layer.op)
            ):
                cycles += self.opt.layer_launch_cycles
            bound_name = max(bounds, key=lambda k: bounds[k])
            if gemm is not None:
                vu_used = bounds.get("vector", 0)
                fusion_credit = max(0, cycles - vu_used)
            elif not (layer.op is not None and _fusable(layer.op)):
                fusion_credit = 0
            offchip_bytes += layer_offchip
            vector_ops_total += vector_ops
            total_cycles += max(cycles, 1)
            layer_records.append(
                LayerTiming(
                    name=layer.name,
                    cycles=max(cycles, 1),
                    bound=bound_name,
                    useful_macs=cost.macs * batch,
                    vector_ops=vector_ops,
                )
            )

        latency_s = total_cycles / (arch.freq_ghz * GIGA)
        total_macs = graph.total_macs() * batch
        achieved_tops = (
            total_macs * OPS_PER_MAC / latency_s / 1e12
            if latency_s > 0
            else 0.0
        )
        activity = self._activity(
            total_cycles, tu_macs, occupied_mac_cycles, vector_ops_total,
            mem_bytes, noc_bytes, offchip_bytes, latency_s,
        )
        return SimulationResult(
            graph_name=graph.name,
            batch=batch,
            total_cycles=total_cycles,
            latency_s=latency_s,
            throughput_fps=batch / latency_s if latency_s > 0 else 0.0,
            achieved_tops=achieved_tops,
            peak_tops=self.chip.peak_tops(self.ctx),
            activity=activity,
            layers=tuple(layer_records),
        )

    def _activity(
        self,
        total_cycles: int,
        tu_macs: int,
        occupied_mac_cycles: int,
        vector_ops: int,
        mem_bytes: list[float],
        noc_bytes: float,
        offchip_bytes: float,
        latency_s: float,
    ) -> ActivityFactors:
        arch = self.arch
        cycles = max(total_cycles, 1)
        window = max(latency_s, 1e-12)
        tu_util = min(
            tu_macs / (arch.macs_per_cycle * cycles), 1.0
        )
        vu_util = min(
            vector_ops / (arch.vu_lanes_total * cycles), 1.0
        )
        occupancy = min(
            occupied_mac_cycles / (arch.macs_per_cycle * cycles), 1.0
        )
        return ActivityFactors(
            tu_utilization=tu_util,
            tu_occupancy=max(occupancy, tu_util),
            vu_utilization=vu_util,
            su_activity=min(0.2 + 0.3 * tu_util, 1.0),
            mem_read_gbps=mem_bytes[0] / window / GIGA,
            mem_write_gbps=mem_bytes[1] / window / GIGA,
            noc_gbps=noc_bytes / window / GIGA,
            offchip_gbps=offchip_bytes / window / GIGA,
        )

    # -- batch-size studies (Fig. 9) -------------------------------------------

    def batch_sweep(
        self,
        graph: Graph,
        batches: tuple[int, ...] = BATCH_CANDIDATES,
    ) -> list[SimulationResult]:
        """Simulate a graph across batch sizes (the Fig. 9 series)."""
        return [self.run(graph, batch) for batch in batches]

    def latency_limited_batch(
        self,
        graph: Graph,
        slo_ms: float = DEFAULT_LATENCY_SLO_MS,
        candidates: tuple[int, ...] = BATCH_CANDIDATES,
    ) -> int:
        """Largest candidate batch whose *per-batch* latency meets the SLO.

        This is the paper's "latency limited (medium) batch size".  Returns
        the smallest candidate even when it misses the SLO (the chip then
        simply cannot meet the requirement, as the paper's wimpiest points
        cannot).
        """
        return self.latency_limited_run(graph, slo_ms, candidates).batch

    def latency_limited_run(
        self,
        graph: Graph,
        slo_ms: float = DEFAULT_LATENCY_SLO_MS,
        candidates: tuple[int, ...] = BATCH_CANDIDATES,
    ) -> SimulationResult:
        """The run at :meth:`latency_limited_batch`'s batch.

        Scans the sorted candidates once and returns the winner's run,
        so callers need not simulate the chosen batch a second time.
        """
        runs = {batch: self.run(graph, batch) for batch in sorted(candidates)}
        best = candidates[0]
        for batch, result in runs.items():
            if result.latency_ms <= slo_ms:
                best = batch
        return runs[best]
