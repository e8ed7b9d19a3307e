"""The graph-level performance simulator (TF-Sim substitute).

Walks a computational graph layer by layer: GEMM-shaped layers go through
the systolic mapping engine, vector-shaped layers (pooling, activations,
depthwise convolutions, eltwise) run on the vector units, and every layer's
time is the max of its compute, on-chip memory, NoC, and off-chip bound
(double buffering overlaps them).  The output carries end-to-end latency,
throughput, achieved TOPS, TU utilization, and the per-component activity
factors the runtime power model consumes.

The walk (:func:`walk_graph`) is written once, over an array namespace
``xp``, and runs over a :class:`GraphSpec` — the graph flattened once into
its point-independent per-layer quantities.  :class:`Simulator` runs it on
one chip over Python numbers (:mod:`repro.perf.scalar`); the vector
backend (:mod:`repro.batch.perf`) runs the same walk over NumPy arrays of
design points and batch sizes, so both backends agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.cache.keys import stable_hash
from repro.errors import MappingError
from repro.perf import scalar
from repro.perf.graph import Graph
from repro.perf.mapping import ArchView, map_gemm_dims
from repro.perf.ops import (
    Activation,
    Conv2d,
    DepthwiseConv2d,
    Elementwise,
    GlobalPool,
    Operator,
    Pool,
)
from repro.perf.optimizations import (
    OptimizationConfig,
    fold_stem,
    folds_stem,
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


@dataclass(frozen=True)
class LayerSpec:
    """One graph layer's point-independent quantities.

    The walk reads these instead of live ``LayerNode`` objects: the
    per-sample costs, the base GEMM dims (before batch scaling), and the
    layer-class predicates that gate fusion, SIMD packing, space-to-depth,
    and the launch overhead.
    """

    name: str
    has_gemm: bool
    gemm_m: int
    gemm_k: int
    gemm_n: int
    space_to_depth: bool
    macs: int
    vector_ops: int
    params_bytes: int
    input_bytes: int
    output_bytes: int
    simd: int
    fusable: bool
    pays_launch: bool


@dataclass(frozen=True)
class GraphSpec:
    """A whole graph flattened for the walk."""

    name: str
    layers: Tuple[LayerSpec, ...]
    total_macs: int
    total_params_bytes: int

    @property
    def digest(self) -> str:
        """The spec's content digest, computed once per spec object.

        Kept in ``_digest``, which is not a dataclass field, so equality
        and cache-key canonicalization ignore it.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = stable_hash(self)
            object.__setattr__(self, "_digest", digest)
        return digest

    @classmethod
    def of(cls, graph: Graph, opt: OptimizationConfig) -> "GraphSpec":
        """The graph's spec under ``opt``, built once per graph and config.

        The spec is memoized on the graph (``Graph.add`` clears the memo),
        so a sweep flattens each workload once, not once per design point.
        """
        spec = graph._specs.get(opt)
        if spec is None:
            spec = graph._specs[opt] = cls._flatten(graph, opt)
        return spec

    @classmethod
    def _flatten(cls, graph: Graph, opt: OptimizationConfig) -> "GraphSpec":
        layers: List[LayerSpec] = []
        for layer in graph:
            cost = layer.cost()
            has_gemm = cost.gemm is not None
            fusable = layer.op is not None and _fusable(layer.op)
            s2d = (
                has_gemm
                and opt.space_to_depth
                and isinstance(layer.op, Conv2d)
                and folds_stem(layer.input_shape[2], layer.op.stride)
            )
            layers.append(
                LayerSpec(
                    name=layer.name,
                    has_gemm=has_gemm,
                    gemm_m=cost.gemm.m if has_gemm else 0,
                    gemm_k=cost.gemm.k if has_gemm else 0,
                    gemm_n=cost.gemm.n if has_gemm else 0,
                    space_to_depth=s2d,
                    macs=cost.macs,
                    vector_ops=cost.vector_ops,
                    params_bytes=cost.params_bytes,
                    input_bytes=cost.input_bytes,
                    output_bytes=cost.output_bytes,
                    simd=_vector_simd(layer.op) if layer.op else 1,
                    fusable=fusable,
                    pays_launch=has_gemm or not fusable,
                )
            )
        return cls(
            name=graph.name,
            layers=tuple(layers),
            total_macs=graph.total_macs(),
            total_params_bytes=graph.total_params_bytes(),
        )


#: Bound names in attribution order: a layer's bound is the first
#: maximum.  The NoC bound is zero on single-core chips.
_GEMM_BOUNDS = ("compute", "vector", "mem-read", "mem-write", "offchip", "noc")
_VECTOR_BOUNDS = ("vector", "mem-read", "mem-write", "offchip")

#: The walk's outputs that make up :class:`ActivityFactors`.
_ACTIVITY_FIELDS = (
    "tu_utilization",
    "tu_occupancy",
    "vu_utilization",
    "su_activity",
    "mem_read_gbps",
    "mem_write_gbps",
    "noc_gbps",
    "offchip_gbps",
)


def walk_graph(
    spec: GraphSpec,
    arch: ArchView,
    batch,
    opt: OptimizationConfig,
    xp,
    layers: Optional[List[LayerTiming]] = None,
) -> dict:
    """Simulate one batch of ``spec`` on ``arch``, over namespace ``xp``.

    Over Python numbers (``xp`` is :mod:`repro.perf.scalar`) this is one
    run on one chip; over NumPy, ``batch`` and the view's arrays
    broadcast, so one pass simulates every design point at every batch
    size.  Returns ``total_cycles``, ``latency_s``, ``throughput_fps``,
    ``achieved_tops`` and the activity factors, shaped like the
    broadcast.  When ``layers`` is a list, each layer's
    :class:`LayerTiming` is appended to it (Python numbers only).
    """
    freq = arch.freq_ghz
    weights_resident = spec.total_params_bytes <= (
        arch.mem_capacity_bytes * (1 - _ACTIVATION_MEM_SHARE)
    )
    activation_budget = arch.mem_capacity_bytes * _ACTIVATION_MEM_SHARE

    def to_cycles(moved, bandwidth_gbps):
        """Cycles to move ``moved`` bytes at ``bandwidth_gbps``."""
        moving = moved > 0
        if xp.any(moving & (bandwidth_gbps <= 0)):
            raise MappingError("traffic on a zero-bandwidth path")
        safe_bw = xp.where(bandwidth_gbps > 0, bandwidth_gbps, 1.0)
        seconds = moved / (safe_bw * GIGA)
        return xp.where(moving, xp.ceil(seconds * freq * GIGA), 0)

    total_cycles = 0
    tu_macs = 0
    occupied_mac_cycles = 0
    vector_ops_total = 0
    mem_read_total = 0.0
    mem_write_total = 0.0
    noc_total = 0.0
    offchip_total = 0.0
    fusion_credit = 0  # spare cycles of the previous GEMM layer

    for layer in spec.layers:
        vector_ops = layer.vector_ops * batch
        # Weights stream in once per batch when they do not fit (they are
        # reused across every sample of the layer-wise schedule); the
        # working set beyond the activation budget spills to DRAM and
        # comes back for the next layer.
        working_set = (layer.input_bytes + layer.output_bytes) * batch
        layer_offchip = xp.where(
            weights_resident, 0.0, float(layer.params_bytes)
        ) + 2.0 * xp.maximum(0.0, working_set - activation_budget)

        if layer.has_gemm:
            m = layer.gemm_m * batch
            k = layer.gemm_k
            if layer.space_to_depth:
                m, k = fold_stem(m, k, xp)
            mapping = map_gemm_dims(m, k, layer.gemm_n, arch, opt, xp)
            vector_ops = vector_ops + mapping.merge_vector_ops
            vu_cycles = xp.ceil(
                mapping.merge_vector_ops / xp.maximum(arch.vu_lanes_total, 1)
                + layer.vector_ops
                * batch
                / xp.maximum(arch.vu_lanes_total * _POINTWISE_SIMD, 1)
            )
            bounds = [
                mapping.compute_cycles,
                vu_cycles,
                to_cycles(mapping.mem_read_bytes, arch.mem_read_gbps),
                to_cycles(mapping.mem_write_bytes, arch.mem_write_gbps),
                to_cycles(layer_offchip, arch.offchip_gbps),
                to_cycles(mapping.noc_bytes, arch.noc_gbps),
            ]
            noc_total = noc_total + mapping.noc_bytes
            mem_read_total = mem_read_total + mapping.mem_read_bytes
            mem_write_total = mem_write_total + mapping.mem_write_bytes
            tu_macs = tu_macs + mapping.useful_macs
            occupied_mac_cycles = (
                occupied_mac_cycles + mapping.occupied_mac_cycles
            )
        else:
            vu_cycles = xp.ceil(
                vector_ops / xp.maximum(arch.vu_lanes_total * layer.simd, 1)
            )
            if layer.fusable:
                # Pointwise layers drain through the previous GEMM's
                # output path; only the residue beyond its spare VU time
                # costs extra cycles.
                consumed = xp.minimum(vu_cycles, fusion_credit)
                fusion_credit = fusion_credit - consumed
                vu_cycles = vu_cycles - consumed
            reads = (layer.input_bytes + layer.params_bytes) * batch
            writes = layer.output_bytes * batch
            bounds = [
                vu_cycles,
                to_cycles(reads, arch.mem_read_gbps),
                to_cycles(writes, arch.mem_write_gbps),
                to_cycles(layer_offchip, arch.offchip_gbps),
            ]
            mem_read_total = mem_read_total + reads
            mem_write_total = mem_write_total + writes

        if opt.double_buffering:
            cycles = bounds[0]
            for bound in bounds[1:]:
                cycles = xp.maximum(cycles, bound)
        else:
            # Without double buffering, data movement serializes with
            # compute.
            compute = bounds[0] if layer.has_gemm else 0
            movement = 0
            for bound in bounds[1:] if layer.has_gemm else bounds:
                movement = movement + bound
            cycles = compute + movement
        # Fused pointwise residues ride the pipeline; everything else
        # pays the serial layer-launch cost.
        if layer.pays_launch:
            cycles = cycles + opt.layer_launch_cycles
        if layer.has_gemm:
            fusion_credit = xp.maximum(0, cycles - vu_cycles)
        elif not layer.fusable:
            fusion_credit = 0
        offchip_total = offchip_total + layer_offchip
        vector_ops_total = vector_ops_total + vector_ops
        layer_cycles = xp.maximum(cycles, 1)
        total_cycles = total_cycles + layer_cycles
        if layers is not None:
            names = _GEMM_BOUNDS if layer.has_gemm else _VECTOR_BOUNDS
            layers.append(
                LayerTiming(
                    name=layer.name,
                    cycles=layer_cycles,
                    bound=names[bounds.index(max(bounds))],
                    useful_macs=layer.macs * batch,
                    vector_ops=vector_ops,
                )
            )

    latency_s = total_cycles / (freq * GIGA)
    ran = latency_s > 0
    safe_latency = xp.where(ran, latency_s, 1.0)
    cycles_floor = xp.maximum(total_cycles, 1)
    window = xp.maximum(latency_s, 1e-12)
    tu_util = xp.minimum(
        tu_macs / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    occupancy = xp.minimum(
        occupied_mac_cycles / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    return {
        "total_cycles": total_cycles,
        "latency_s": latency_s,
        "throughput_fps": xp.where(ran, batch / safe_latency, 0.0),
        "achieved_tops": xp.where(
            ran,
            spec.total_macs * batch * OPS_PER_MAC / safe_latency / 1e12,
            0.0,
        ),
        "tu_utilization": tu_util,
        "tu_occupancy": xp.maximum(occupancy, tu_util),
        "vu_utilization": xp.minimum(
            vector_ops_total / (arch.vu_lanes_total * cycles_floor), 1.0
        ),
        "su_activity": xp.minimum(0.2 + 0.3 * tu_util, 1.0),
        "mem_read_gbps": mem_read_total / window / GIGA,
        "mem_write_gbps": mem_write_total / window / GIGA,
        "noc_gbps": noc_total / window / GIGA,
        "offchip_gbps": offchip_total / window / GIGA,
    }


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

    def run(self, graph: Graph, batch: int = 1) -> SimulationResult:
        """Simulate one batch of ``graph`` end to end."""
        if batch < 1:
            raise MappingError(f"batch must be >= 1, got {batch}")
        layers: List[LayerTiming] = []
        out = walk_graph(
            GraphSpec.of(graph, self.opt),
            self.arch,
            batch,
            self.opt,
            scalar,
            layers,
        )
        return SimulationResult(
            graph_name=graph.name,
            batch=batch,
            total_cycles=out["total_cycles"],
            latency_s=out["latency_s"],
            throughput_fps=out["throughput_fps"],
            achieved_tops=out["achieved_tops"],
            peak_tops=self.chip.peak_tops(self.ctx),
            activity=ActivityFactors(
                **{name: out[name] for name in _ACTIVITY_FIELDS}
            ),
            layers=tuple(layers),
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
