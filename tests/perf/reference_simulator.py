"""The per-layer scalar cycle simulator and GEMM mappers, kept as a reference.

``repro.perf`` runs one simulator for both backends: the mapper and the
layer walk are written once over an array namespace, fed NumPy arrays by
the vector path and plain Python numbers by :class:`Simulator`.  This
module keeps the hand-written scalar loop they replaced — the
``Simulator.run`` layer loop with its ``_activity``, ``_to_cycles`` and
``_layer_gemm`` helpers, and both dataflow mappers — so that
``test_simulator_reference.py`` can check the shared code against it
bit for bit, the way ``tests/circuit/test_sram.py`` keeps the SRAM
candidate loop.

The mappers tile by ``tu_rows`` alone, so they describe square tensor
units only; compare on square arrays.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.arch.tensor_unit import Dataflow
from repro.errors import MappingError
from repro.perf.graph import Graph, LayerNode
from repro.perf.mapping import ArchView, GemmMapping
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
from repro.perf.simulator import (
    BATCH_CANDIDATES,
    DEFAULT_LATENCY_SLO_MS,
    LayerTiming,
    SimulationResult,
)
from repro.power.runtime import ActivityFactors
from repro.units import GIGA, OPS_PER_MAC

_PSUM_BYTES = 4
_MIN_M_CHUNK_FACTOR = 2
_ACTIVATION_MEM_SHARE = 0.5
_POINTWISE_SIMD = 4
_DEPTHWISE_SIMD = 2


def _vector_simd(op: Operator) -> int:
    if isinstance(op, DepthwiseConv2d):
        return _DEPTHWISE_SIMD
    if isinstance(op, (Activation, Elementwise, Pool, GlobalPool)):
        return _POINTWISE_SIMD
    return 1


def _fusable(op: Operator) -> bool:
    return isinstance(op, (Activation, Elementwise))


# -- the mappers ---------------------------------------------------------------


def map_gemm(
    gemm: Gemm, arch: ArchView, opt: OptimizationConfig
) -> GemmMapping:
    if arch.dataflow is Dataflow.OUTPUT_STATIONARY:
        return _map_output_stationary(gemm, arch, opt)
    return _map_weight_stationary(gemm, arch, opt)


def _map_weight_stationary(
    gemm: Gemm, arch: ArchView, opt: OptimizationConfig
) -> GemmMapping:
    x = arch.tu_rows
    k_tiles = math.ceil(gemm.k / x)
    n_tiles = math.ceil(gemm.n / x)
    tiles = k_tiles * n_tiles

    min_chunk = _MIN_M_CHUNK_FACTOR * x
    if n_tiles < arch.tus and gemm.m > min_chunk:
        chunks_per_tile = min(
            math.ceil(arch.tus / n_tiles), math.ceil(gemm.m / min_chunk)
        )
    else:
        chunks_per_tile = 1
    n_parallel = n_tiles * chunks_per_tile
    if n_parallel >= arch.tus:
        k_parallel = 1
    else:
        k_parallel = min(k_tiles, math.ceil(arch.tus / n_parallel))
    total_passes = tiles * chunks_per_tile
    m_part = math.ceil(gemm.m / chunks_per_tile)

    fill_drain = 2 * x
    weight_load = 0 if opt.double_buffering else x
    per_pass = m_part + weight_load + opt.tile_overhead_cycles
    if not opt.double_buffering:
        per_pass += fill_drain
    rounds = math.ceil(total_passes / arch.tus)
    compute_cycles = rounds * per_pass + fill_drain

    merge_ops = gemm.m * gemm.n * (k_parallel - 1)

    if arch.cores > 1:
        m_parallelism = max(1, gemm.m // min_chunk)
        data_parallel_cores = min(arch.cores, m_parallelism)
        cross_fraction = (arch.cores - data_parallel_cores) / arch.cores
        psum_noc = math.ceil(
            gemm.m * gemm.n * _PSUM_BYTES * (k_parallel - 1) * cross_fraction
        )
        broadcast_noc = math.ceil(gemm.m * gemm.k * cross_fraction)
        weight_replicas = min(chunks_per_tile, arch.cores)
        broadcast_noc += gemm.k * gemm.n * max(weight_replicas - 1, 0)
    else:
        psum_noc = 0
        broadcast_noc = 0

    reuse = max(1, min(n_tiles, opt.activation_reuse_tiles))
    act_reads = gemm.m * gemm.k * math.ceil(n_tiles / reuse)
    merge_spill = gemm.m * gemm.n * _PSUM_BYTES * max(k_parallel - 1, 0)
    mem_reads = act_reads + gemm.k * gemm.n + merge_spill
    mem_writes = gemm.m * gemm.n + merge_spill

    return GemmMapping(
        compute_cycles=compute_cycles,
        useful_macs=gemm.macs,
        occupied_mac_cycles=total_passes * per_pass * x * x,
        merge_vector_ops=merge_ops,
        mem_read_bytes=math.ceil(mem_reads),
        mem_write_bytes=math.ceil(mem_writes),
        noc_bytes=psum_noc + broadcast_noc,
        weight_bytes=gemm.k * gemm.n,
        tiles=tiles,
        k_tiles=k_tiles,
    )


def _map_output_stationary(
    gemm: Gemm, arch: ArchView, opt: OptimizationConfig
) -> GemmMapping:
    x = arch.tu_rows
    m_tiles = math.ceil(gemm.m / x)
    n_tiles = math.ceil(gemm.n / x)
    passes = m_tiles * n_tiles

    fill_drain = 2 * x
    per_pass = gemm.k + opt.tile_overhead_cycles
    if not opt.double_buffering:
        per_pass += fill_drain
    rounds = math.ceil(passes / arch.tus)
    compute_cycles = rounds * per_pass + fill_drain

    reuse = max(1, min(n_tiles, opt.activation_reuse_tiles))
    a_reads = gemm.m * gemm.k * math.ceil(n_tiles / reuse)
    b_reads = gemm.k * gemm.n * m_tiles
    mem_reads = a_reads + b_reads
    mem_writes = gemm.m * gemm.n

    if arch.cores > 1:
        min_chunk = _MIN_M_CHUNK_FACTOR * x
        m_parallelism = max(1, gemm.m // min_chunk)
        data_parallel_cores = min(arch.cores, m_parallelism)
        cross_fraction = (arch.cores - data_parallel_cores) / arch.cores
        broadcast_noc = math.ceil(gemm.m * gemm.k * cross_fraction)
        weight_replicas = min(arch.cores, m_tiles)
        broadcast_noc += gemm.k * gemm.n * max(weight_replicas - 1, 0)
    else:
        broadcast_noc = 0

    return GemmMapping(
        compute_cycles=compute_cycles,
        useful_macs=gemm.macs,
        occupied_mac_cycles=passes * per_pass * x * x,
        merge_vector_ops=0,
        mem_read_bytes=math.ceil(mem_reads),
        mem_write_bytes=math.ceil(mem_writes),
        noc_bytes=broadcast_noc,
        weight_bytes=gemm.k * gemm.n,
        tiles=passes,
        k_tiles=1,
    )


# -- the layer loop ------------------------------------------------------------


class ReferenceSimulator:
    """The per-layer scalar loop over live ``LayerNode`` objects."""

    def __init__(
        self,
        chip: Chip,
        ctx: ModelContext,
        opt: Optional[OptimizationConfig] = None,
        arch: Optional[ArchView] = None,
    ):
        self.chip = chip
        self.ctx = ctx
        self.opt = opt if opt is not None else OptimizationConfig.all_on()
        self.arch = arch if arch is not None else ArchView.of(chip, ctx)

    def _to_cycles(self, bytes_moved: float, bandwidth_gbps: float) -> int:
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

    def run(self, graph: Graph, batch: int = 1) -> SimulationResult:
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
                layer_offchip += cost.params_bytes
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
                movement = sum(
                    v for k, v in bounds.items() if k != "compute"
                )
                cycles = bounds.get("compute", 0) + movement
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

    def latency_limited_run(
        self,
        graph: Graph,
        slo_ms: float = DEFAULT_LATENCY_SLO_MS,
        candidates: tuple[int, ...] = BATCH_CANDIDATES,
    ) -> SimulationResult:
        runs = {batch: self.run(graph, batch) for batch in sorted(candidates)}
        best = candidates[0]
        for batch, result in runs.items():
            if result.latency_ms <= slo_ms:
                best = batch
        return runs[best]
