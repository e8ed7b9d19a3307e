"""Batched performance simulation: the ``repro/perf`` stack over arrays.

The scalar path evaluates workloads one design point at a time: build the
chip, derive the :class:`~repro.perf.mapping.ArchView`, walk the graph
layer by layer through :func:`~repro.perf.mapping.map_gemm` and
:meth:`~repro.perf.simulator.Simulator.run`, then combine the activity
factors in :func:`~repro.power.runtime.runtime_power`.  Every quantity in
that walk is a closed form of the design tuple, so this module transcribes
it into NumPy array ops over *all* points of a sweep at once — the same
float64 operations in the same order, which keeps the results bit-exact
(integer intermediates stay below 2**53 on the Table I workloads, and
IEEE-754 ops on exactly-represented values are deterministic).

The per-layer loop stays a Python loop (a graph has tens of layers); the
per-*point* dimension — the axis that grows with sweep size — is fully
vectorized, and so is a second, leading axis of batch sizes: every op is
elementwise, so one pass over a ``(rows, points)`` batch array simulates
all of a sweep's batch regimes, including every candidate of the
latency-bound search, at once.  Kernels use only array-API-standard
operations so a GPU array namespace (e.g. ``cupy``) can be swapped in
later.

Energy coefficients that depend on the design tuple only through a handful
of unique values (the TU's per-active-cycle energy depends on ``X`` alone;
the VReg's on ``(lanes, N)``) are evaluated through the *real* scalar
models once per unique value and scattered back into point arrays, so the
batched runtime power is bit-identical to the scalar combination by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.tensor_unit import TensorUnit
from repro.arch.vector_unit import VectorUnit
from repro.arch.vreg import VectorRegisterFile, VRegConfig
from repro.batch.substrate import TechSubstrate
from repro.errors import MappingError
from repro.perf.graph import Graph
from repro.perf.ops import Conv2d
from repro.perf.optimizations import OptimizationConfig
from repro.perf.optimizations import _FOLD, _STEM_CHANNEL_BOUND
from repro.perf.simulator import (
    BATCH_CANDIDATES,
    DEFAULT_LATENCY_SLO_MS,
    _ACTIVATION_MEM_SHARE,
    _POINTWISE_SIMD,
    _fusable,
    _vector_simd,
)
from repro.power.runtime import _DRAM_IDLE_FRACTION, _FILL_ENERGY_FRACTION
from repro.tech import calibration
from repro.units import GIGA, OPS_PER_MAC, dynamic_power_w

#: Partial-sum width on the NoC (mirrors ``repro.perf.mapping``).
_PSUM_BYTES = 4

#: Smallest M chunk worth splitting a tile pass over.
_MIN_M_CHUNK_FACTOR = 2


# -- the simulator's chip summary, as arrays -----------------------------------


@dataclass(frozen=True)
class ArchArrays:
    """:class:`~repro.perf.mapping.ArchView` transcribed to point arrays.

    Every attribute mirrors its scalar namesake; ``multi`` is the
    ``cores > 1`` mask that gates the NoC bound and the NoC power term.
    """

    tu_rows: np.ndarray
    tus: np.ndarray
    cores: np.ndarray
    vu_lanes_total: np.ndarray
    macs_per_cycle: np.ndarray
    freq_ghz: float
    mem_capacity_bytes: np.ndarray
    mem_read_gbps: np.ndarray
    mem_write_gbps: np.ndarray
    noc_gbps: np.ndarray
    offchip_gbps: np.ndarray
    multi: np.ndarray

    @classmethod
    def of(
        cls,
        sub: TechSubstrate,
        grid: Dict[str, np.ndarray],
        x: np.ndarray,
        n: np.ndarray,
        cores: np.ndarray,
    ) -> "ArchArrays":
        """Build the view from ``estimate_grid`` outputs.

        Mirrors ``ArchView.of``: the Mem bandwidth is the *chosen SRAM
        organization's* aggregate bandwidth times the core count, the NoC
        carries the bisection bandwidth only on multi-core chips, and the
        MAC throughput is ``cores * N * X**2``.
        """
        x = np.asarray(x, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        cores = np.asarray(cores, dtype=np.float64)
        multi = cores > 1
        return cls(
            tu_rows=x,
            tus=cores * n,
            cores=cores,
            vu_lanes_total=cores * grid["lanes"],
            macs_per_cycle=cores * (n * (x * x)),
            freq_ghz=sub.freq_ghz,
            mem_capacity_bytes=cores * grid["mem_capacity_bytes"],
            mem_read_gbps=cores * grid["mem_peak_read_gbps"],
            mem_write_gbps=cores * grid["mem_peak_write_gbps"],
            noc_gbps=np.where(
                multi, sub.template_noc_bisection_gbps, 0.0
            ),
            offchip_gbps=np.full(
                cores.shape, sub.template_offchip_gbps, dtype=np.float64
            ),
            multi=multi,
        )


def _to_cycles(
    bytes_moved, bandwidth_gbps, freq_ghz: float
) -> np.ndarray:
    """``Simulator._to_cycles`` over arrays (exact float-op order)."""
    moved = np.asarray(bytes_moved, dtype=np.float64)
    bw = np.asarray(bandwidth_gbps, dtype=np.float64)
    moving = moved > 0
    if np.any(moving & (bw <= 0)):
        raise MappingError("traffic on a zero-bandwidth path")
    safe_bw = np.where(bw > 0, bw, 1.0)
    seconds = moved / (safe_bw * GIGA)
    return np.where(
        moving, np.ceil(seconds * freq_ghz * GIGA), 0.0
    )


# -- the weight-stationary mapper, as arrays -----------------------------------


def map_weight_stationary_arrays(
    m, k, n_dim, arch: ArchArrays, opt: OptimizationConfig
) -> Dict[str, np.ndarray]:
    """``_map_weight_stationary`` with array-valued GEMM dims and arch.

    ``m`` may vary per point (batch scaling); ``k``/``n_dim`` are scalars
    or arrays.  Returns the mapping quantities the simulator consumes.
    All intermediates are exact integers in float64, so every ``ceil``
    and floor-division matches the scalar ``math`` calls bit for bit.
    """
    x = arch.tu_rows
    m = np.asarray(m, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    n_dim = np.asarray(n_dim, dtype=np.float64)

    k_tiles = np.ceil(k / x)
    n_tiles = np.ceil(n_dim / x)
    tiles = k_tiles * n_tiles

    min_chunk = _MIN_M_CHUNK_FACTOR * x
    split = (n_tiles < arch.tus) & (m > min_chunk)
    chunks_per_tile = np.where(
        split,
        np.minimum(np.ceil(arch.tus / n_tiles), np.ceil(m / min_chunk)),
        1.0,
    )
    n_parallel = n_tiles * chunks_per_tile
    k_parallel = np.where(
        n_parallel >= arch.tus,
        1.0,
        np.minimum(k_tiles, np.ceil(arch.tus / n_parallel)),
    )
    total_passes = tiles * chunks_per_tile
    m_part = np.ceil(m / chunks_per_tile)

    fill_drain = 2 * x
    weight_load = 0.0 if opt.double_buffering else x
    per_pass = m_part + weight_load + opt.tile_overhead_cycles
    if not opt.double_buffering:
        per_pass = per_pass + fill_drain
    rounds = np.ceil(total_passes / arch.tus)
    compute_cycles = rounds * per_pass + fill_drain

    merge_ops = m * n_dim * (k_parallel - 1)

    m_parallelism = np.maximum(1.0, np.floor_divide(m, min_chunk))
    data_parallel_cores = np.minimum(arch.cores, m_parallelism)
    cross_fraction = (arch.cores - data_parallel_cores) / arch.cores
    psum_noc = np.ceil(
        m * n_dim * _PSUM_BYTES * (k_parallel - 1) * cross_fraction
    )
    broadcast_noc = np.ceil(m * k * cross_fraction)
    weight_replicas = np.minimum(chunks_per_tile, arch.cores)
    broadcast_noc = broadcast_noc + k * n_dim * np.maximum(
        weight_replicas - 1, 0.0
    )
    noc_bytes = np.where(arch.multi, psum_noc + broadcast_noc, 0.0)

    reuse = np.maximum(
        1.0, np.minimum(n_tiles, opt.activation_reuse_tiles)
    )
    act_reads = m * k * np.ceil(n_tiles / reuse)
    merge_spill = m * n_dim * _PSUM_BYTES * np.maximum(k_parallel - 1, 0.0)
    mem_reads = act_reads + k * n_dim + merge_spill
    mem_writes = m * n_dim + merge_spill

    return {
        "compute_cycles": compute_cycles,
        "useful_macs": m * k * n_dim,
        "occupied_mac_cycles": total_passes * per_pass * x * x,
        "merge_vector_ops": merge_ops,
        "mem_read_bytes": np.ceil(mem_reads),
        "mem_write_bytes": np.ceil(mem_writes),
        "noc_bytes": noc_bytes,
    }


# -- graph flattening ----------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One graph layer's point-independent quantities.

    The batched simulator walks these instead of live ``LayerNode``
    objects: the per-sample costs, the base GEMM dims (before batch
    scaling), and the layer-class predicates that gate fusion, SIMD
    packing, space-to-depth, and the launch overhead.
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
    """A whole graph flattened for batched simulation."""

    name: str
    layers: Tuple[LayerSpec, ...]
    total_macs: int
    total_params_bytes: int

    @classmethod
    def of(cls, graph: Graph, opt: OptimizationConfig) -> "GraphSpec":
        layers: List[LayerSpec] = []
        for layer in graph:
            cost = layer.cost()
            has_gemm = cost.gemm is not None
            fusable = layer.op is not None and _fusable(layer.op)
            s2d = (
                has_gemm
                and opt.space_to_depth
                and isinstance(layer.op, Conv2d)
                and not (
                    layer.input_shape[2] > _STEM_CHANNEL_BOUND
                    or layer.op.stride < _FOLD
                )
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


# -- the simulator, as arrays --------------------------------------------------


def simulate_graph_arrays(
    spec: GraphSpec,
    arch: ArchArrays,
    peak_tops: np.ndarray,
    batch: np.ndarray,
    opt: OptimizationConfig,
) -> Dict[str, np.ndarray]:
    """``Simulator.run`` over arrays of design points.

    ``batch`` broadcasts against the point arrays: a per-point array, or
    a ``(rows, 1)`` column that simulates one batch size per row.
    Returns the end-to-end metrics plus the activity factors the runtime
    power model consumes, shaped like the broadcast.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if np.any(batch < 1):
        raise MappingError(
            f"batch must be >= 1, got {float(np.min(batch)):g}"
        )
    freq = arch.freq_ghz
    shape = np.broadcast(arch.tu_rows, batch).shape
    zeros = np.zeros(shape, dtype=np.float64)

    weights_resident = spec.total_params_bytes <= (
        arch.mem_capacity_bytes * (1 - _ACTIVATION_MEM_SHARE)
    )
    activation_budget = arch.mem_capacity_bytes * _ACTIVATION_MEM_SHARE

    total_cycles = zeros.copy()
    tu_macs = zeros.copy()
    occupied_mac_cycles = zeros.copy()
    vector_ops_total = zeros.copy()
    mem_read_total = zeros.copy()
    mem_write_total = zeros.copy()
    noc_total = zeros.copy()
    offchip_total = zeros.copy()
    fusion_credit = zeros.copy()

    for layer in spec.layers:
        vector_ops = layer.vector_ops * batch
        layer_offchip = np.where(
            weights_resident, 0.0, float(layer.params_bytes)
        )
        working_set = (layer.input_bytes + layer.output_bytes) * batch
        layer_offchip = layer_offchip + 2.0 * np.maximum(
            0.0, working_set - activation_budget
        )

        if layer.has_gemm:
            m = layer.gemm_m * batch
            k = float(layer.gemm_k)
            if layer.space_to_depth:
                factor = _FOLD * _FOLD
                m = np.maximum(1.0, np.floor_divide(m, factor))
                k = k * factor
            mapping = map_weight_stationary_arrays(
                m, k, layer.gemm_n, arch, opt
            )
            vector_ops = vector_ops + mapping["merge_vector_ops"]
            vu_cycles = np.ceil(
                mapping["merge_vector_ops"]
                / np.maximum(arch.vu_lanes_total, 1)
                + layer.vector_ops
                * batch
                / np.maximum(arch.vu_lanes_total * _POINTWISE_SIMD, 1)
            )
            bound_list = [
                mapping["compute_cycles"],
                vu_cycles,
                _to_cycles(
                    mapping["mem_read_bytes"], arch.mem_read_gbps, freq
                ),
                _to_cycles(
                    mapping["mem_write_bytes"], arch.mem_write_gbps, freq
                ),
                _to_cycles(layer_offchip, arch.offchip_gbps, freq),
                _to_cycles(mapping["noc_bytes"], arch.noc_gbps, freq),
            ]
            noc_total = noc_total + mapping["noc_bytes"]
            mem_read_total = mem_read_total + mapping["mem_read_bytes"]
            mem_write_total = mem_write_total + mapping["mem_write_bytes"]
            tu_macs = tu_macs + mapping["useful_macs"]
            occupied_mac_cycles = (
                occupied_mac_cycles + mapping["occupied_mac_cycles"]
            )
        else:
            vu_cycles = np.ceil(
                vector_ops / np.maximum(arch.vu_lanes_total * layer.simd, 1)
            )
            if layer.fusable:
                consumed = np.minimum(vu_cycles, fusion_credit)
                fusion_credit = fusion_credit - consumed
                vu_cycles = vu_cycles - consumed
            reads = (layer.input_bytes + layer.params_bytes) * batch
            writes = layer.output_bytes * batch
            bound_list = [
                vu_cycles,
                _to_cycles(reads, arch.mem_read_gbps, freq),
                _to_cycles(writes, arch.mem_write_gbps, freq),
                _to_cycles(layer_offchip, arch.offchip_gbps, freq),
            ]
            mem_read_total = mem_read_total + reads
            mem_write_total = mem_write_total + writes

        if opt.double_buffering:
            cycles = bound_list[0]
            for bound in bound_list[1:]:
                cycles = np.maximum(cycles, bound)
        else:
            movement = zeros.copy()
            non_compute = (
                bound_list[1:] if layer.has_gemm else bound_list
            )
            for bound in non_compute:
                movement = movement + bound
            compute = bound_list[0] if layer.has_gemm else zeros
            cycles = compute + movement
        if layer.pays_launch:
            cycles = cycles + opt.layer_launch_cycles
        if layer.has_gemm:
            fusion_credit = np.maximum(0.0, cycles - vu_cycles)
        elif not layer.fusable:
            fusion_credit = zeros.copy()
        offchip_total = offchip_total + layer_offchip
        vector_ops_total = vector_ops_total + vector_ops
        total_cycles = total_cycles + np.maximum(cycles, 1.0)

    latency_s = total_cycles / (freq * GIGA)
    total_macs = spec.total_macs * batch
    achieved_tops = np.where(
        latency_s > 0,
        total_macs * OPS_PER_MAC / np.where(latency_s > 0, latency_s, 1.0)
        / 1e12,
        0.0,
    )
    throughput_fps = np.where(
        latency_s > 0,
        batch / np.where(latency_s > 0, latency_s, 1.0),
        0.0,
    )
    utilization = np.where(
        peak_tops > 0,
        achieved_tops / np.where(peak_tops > 0, peak_tops, 1.0),
        0.0,
    )

    cycles_floor = np.maximum(total_cycles, 1.0)
    window = np.maximum(latency_s, 1e-12)
    tu_util = np.minimum(
        tu_macs / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    vu_util = np.minimum(
        vector_ops_total / (arch.vu_lanes_total * cycles_floor), 1.0
    )
    occupancy = np.minimum(
        occupied_mac_cycles / (arch.macs_per_cycle * cycles_floor), 1.0
    )

    return {
        "total_cycles": total_cycles,
        "latency_s": latency_s,
        "latency_ms": latency_s * 1e3,
        "throughput_fps": throughput_fps,
        "achieved_tops": achieved_tops,
        "utilization": utilization,
        "tu_utilization": tu_util,
        "tu_occupancy": np.maximum(occupancy, tu_util),
        "vu_utilization": vu_util,
        "su_activity": np.minimum(0.2 + 0.3 * tu_util, 1.0),
        "mem_read_gbps": mem_read_total / window / GIGA,
        "mem_write_gbps": mem_write_total / window / GIGA,
        "noc_gbps": noc_total / window / GIGA,
        "offchip_gbps": offchip_total / window / GIGA,
    }


# -- runtime power, as arrays --------------------------------------------------


def _map_unique(values: np.ndarray, fn) -> np.ndarray:
    """Evaluate ``fn`` once per unique value and scatter back."""
    out = np.empty(values.shape, dtype=np.float64)
    for value in np.unique(values):
        out[values == value] = fn(float(value))
    return out


def _map_unique_pairs(
    a: np.ndarray, b: np.ndarray, fn
) -> np.ndarray:
    """Evaluate ``fn`` once per unique ``(a, b)`` pair and scatter back."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(np.broadcast(a, b).shape, dtype=np.float64)
    stacked = np.stack(
        [np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape)],
        axis=-1,
    )
    for pair in np.unique(stacked.reshape(-1, 2), axis=0):
        mask = (stacked[..., 0] == pair[0]) & (stacked[..., 1] == pair[1])
        out[mask] = fn(float(pair[0]), float(pair[1]))
    return out


class EnergyCoefficients:
    """Per-active-cycle energies of the point-dependent units.

    Each coefficient depends on the design tuple only through one or two
    integers, so the real scalar accessors run once per unique value —
    exactness for free, and a handful of calls per sweep.
    """

    def __init__(self, sub: TechSubstrate):
        self._sub = sub
        core_cfg = sub.template_config.core
        self._tu_cfg = core_cfg.tu
        self._vu_cfg = sub.template_vu_config
        self._shared_ports = core_cfg.vreg_shared_ports
        self._su = None
        if core_cfg.include_scalar_unit:
            from repro.arch.scalar_unit import ScalarUnit

            self._su = ScalarUnit(scale=core_cfg.scalar_unit_scale)

    def per_tu_pj(self, x: np.ndarray) -> np.ndarray:
        ctx = self._sub.ctx

        def build(value: float) -> float:
            cfg = replace(self._tu_cfg, rows=int(value), cols=int(value))
            return TensorUnit(cfg).energy_per_active_cycle_pj(ctx)

        return _map_unique(np.asarray(x, dtype=np.float64), build)

    def per_vu_pj(self, lanes: np.ndarray) -> np.ndarray:
        ctx = self._sub.ctx

        def build(value: float) -> float:
            cfg = replace(self._vu_cfg, lanes=int(value))
            return VectorUnit(cfg).energy_per_active_cycle_pj(ctx)

        return _map_unique(np.asarray(lanes, dtype=np.float64), build)

    def per_vreg_pj(
        self, lanes: np.ndarray, n: np.ndarray
    ) -> np.ndarray:
        ctx = self._sub.ctx
        shared = self._shared_ports

        def build(lane_count: float, tus: float) -> float:
            cfg = VRegConfig(
                vector_lanes=int(lane_count),
                attached_units=int(tus) + 1,
                shared_ports=shared,
            )
            return VectorRegisterFile(cfg).energy_per_active_cycle_pj(ctx)

        return _map_unique_pairs(lanes, n, build)

    def per_su_pj(self) -> float:
        if self._su is None:
            return 0.0
        return self._su.energy_per_active_cycle_pj(self._sub.ctx)


def runtime_power_arrays(
    sub: TechSubstrate,
    arch: ArchArrays,
    grid: Dict[str, np.ndarray],
    coeffs: EnergyCoefficients,
    n: np.ndarray,
    noc_energy_per_byte_pj: np.ndarray,
    activity: Dict[str, np.ndarray],
) -> np.ndarray:
    """``runtime_power(...).total_w`` over arrays of design points.

    Components accumulate in the scalar dict-insertion order (tensor
    units, vector units, VReg, scalar units, Mem, NoC, off-chip), with
    the NoC term present only on multi-core points — the same two float
    summation orders the scalar walk produces.
    """
    freq = sub.freq_ghz
    n = np.asarray(n, dtype=np.float64)
    overhead = calibration.CLOCK_NETWORK_OVERHEAD

    per_tu = coeffs.per_tu_pj(arch.tu_rows)
    count = arch.cores * n
    active = dynamic_power_w(per_tu, freq) * activity["tu_utilization"]
    fill = (
        dynamic_power_w(per_tu, freq)
        * _FILL_ENERGY_FRACTION
        * np.maximum(
            activity["tu_occupancy"] - activity["tu_utilization"], 0.0
        )
    )
    comp_tu = count * (active + fill)

    per_vu = coeffs.per_vu_pj(grid["lanes"])
    comp_vu = (
        arch.cores
        * dynamic_power_w(per_vu, freq)
        * activity["vu_utilization"]
    )

    per_vreg = coeffs.per_vreg_pj(grid["lanes"], n)
    effective_vreg = np.maximum(
        activity["tu_utilization"], activity["vu_utilization"]
    )
    comp_vreg = (
        arch.cores * dynamic_power_w(per_vreg, freq) * effective_vreg
    )

    comp_su = (
        arch.cores
        * dynamic_power_w(coeffs.per_su_pj(), freq)
        * activity["su_activity"]
    )

    block = grid["mem_block_bytes"]
    read_rate_ghz = activity["mem_read_gbps"] / block
    write_rate_ghz = activity["mem_write_gbps"] / block
    comp_mem = (
        read_rate_ghz * grid["mem_read_energy_pj"]
        + write_rate_ghz * grid["mem_write_energy_pj"]
    ) * 1e-3 * overhead

    comp_noc = activity["noc_gbps"] * noc_energy_per_byte_pj * 1e-3

    leakage = grid["leakage_w"].copy()
    interface_w = (
        activity["offchip_gbps"] * sub.mc_energy_per_byte_pj * 1e-3
    )
    device_rated = sub.mc_device_power_w
    if device_rated > 0:
        peak_gbps = max(sub.template_offchip_gbps, 1e-9)
        duty = np.minimum(activity["offchip_gbps"] / peak_gbps, 1.0)
        interface_w = interface_w + device_rated * (
            _DRAM_IDLE_FRACTION + (1.0 - _DRAM_IDLE_FRACTION) * duty
        )
        leakage = leakage - device_rated

    partial = 0.0 + comp_tu + comp_vu + comp_vreg + comp_su + comp_mem
    dynamic = np.where(
        arch.multi,
        (partial + comp_noc) + interface_w,
        partial + interface_w,
    )
    return dynamic + np.maximum(leakage, 0.0)


# -- workload evaluation (the batched ``evaluate_point`` inner loop) -----------


@dataclass(frozen=True)
class BatchOutcome:
    """Arrays for one (batch regime, workload) across all points."""

    workload: str
    batch_spec: object
    batch: np.ndarray
    achieved_tops: np.ndarray
    utilization: np.ndarray
    latency_ms: np.ndarray
    runtime_power_w: np.ndarray

    def regime(self, index: int) -> str:
        """The regime label for one point (mirrors ``evaluate_point``)."""
        if self.batch_spec == "latency-bound":
            return "latency-bound"
        return f"bs={int(self.batch[index])}"


def simulate_workloads(
    sub: TechSubstrate,
    grid: Dict[str, np.ndarray],
    x: np.ndarray,
    n: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    workloads: Sequence[Tuple[str, Graph]],
    batches: Sequence[object],
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
    opt: Optional[OptimizationConfig] = None,
    specs: Optional[Sequence[Tuple[str, GraphSpec]]] = None,
) -> List[BatchOutcome]:
    """Evaluate every (batch regime, workload) pair over all points.

    Each workload is simulated once, over a ``(rows, points)`` batch
    array.  The rows are the sorted ``BATCH_CANDIDATES`` when any spec is
    ``"latency-bound"``, then every fixed batch not already among them.
    The latency-bound batch is ``Simulator.latency_limited_batch`` per
    point: the last sorted candidate whose latency meets the SLO, else
    ``BATCH_CANDIDATES[0]``.  Each outcome gathers its row per point.

    The outer loops mirror ``evaluate_point`` exactly — batch regimes
    outer, workloads inner — so the flattened outcome order matches the
    scalar path's ``DesignPointResult.outcomes``.  Callers that already
    flattened their graphs (the estimator's cache-key construction does)
    pass ``specs`` to skip re-deriving them from ``workloads``.
    """
    from repro.batch.kernels import noc_energy_per_byte_kernel

    candidates = sorted(BATCH_CANDIDATES)
    rows = list(candidates) if "latency-bound" in batches else []
    for batch_spec in batches:
        if batch_spec != "latency-bound" and int(batch_spec) not in rows:
            rows.append(int(batch_spec))
    if not rows:
        return []

    opt = opt if opt is not None else OptimizationConfig.all_on()
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    cores = tx * ty
    arch = ArchArrays.of(sub, grid, x, n, cores)
    peak_tops = grid["peak_tops"]
    coeffs = EnergyCoefficients(sub)
    noc_epb = noc_energy_per_byte_kernel(sub, tx, ty, grid["core_area_mm2"])

    if specs is None:
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
    sizes = np.asarray(rows, dtype=np.float64)
    stacked = sizes.reshape(sizes.shape + (1,) * x.ndim)
    runs = [
        simulate_graph_arrays(spec, arch, peak_tops, stacked, opt)
        for _, spec in specs
    ]

    outcomes: List[BatchOutcome] = []
    for batch_spec in batches:
        for (name, _), run in zip(specs, runs):
            if batch_spec == "latency-bound":
                meets = run["latency_ms"][: len(candidates)] <= latency_slo_ms
                last = len(candidates) - 1 - np.argmax(meets[::-1], axis=0)
                row = np.where(
                    np.any(meets, axis=0),
                    last,
                    rows.index(BATCH_CANDIDATES[0]),
                )
            else:
                row = np.full(x.shape, rows.index(int(batch_spec)))
            pick = row[np.newaxis]
            result = {
                key: np.take_along_axis(value, pick, axis=0)[0]
                for key, value in run.items()
            }
            power = runtime_power_arrays(
                sub, arch, grid, coeffs, n, noc_epb, result
            )
            outcomes.append(
                BatchOutcome(
                    workload=name,
                    batch_spec=batch_spec,
                    batch=sizes[row],
                    achieved_tops=result["achieved_tops"],
                    utilization=result["utilization"],
                    latency_ms=result["latency_ms"],
                    runtime_power_w=power,
                )
            )
    return outcomes
