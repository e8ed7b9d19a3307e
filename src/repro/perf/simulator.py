"""The graph-level performance simulator (TF-Sim substitute).

Walks a computational graph's layers: GEMM-shaped layers go through the
systolic mapping engine, vector-shaped layers (pooling, activations,
depthwise convolutions, eltwise) run on the vector units, and every layer's
time is the max of its compute, on-chip memory, NoC, and off-chip bound
(double buffering overlaps them).  The output carries end-to-end latency,
throughput, achieved TOPS, TU utilization, and the per-component activity
factors the runtime power model consumes.

The walk (:func:`walk_graph`) runs over a :class:`GraphSpec` — the graph
flattened once into its point-independent per-layer quantities — with the
layers as a leading NumPy axis.  A block of whole GEMM groups maps all its
GEMM layers in one :func:`~repro.perf.mapping.map_gemm_dims` call and runs
all its vector layers as one set of array ops; the fusion credit, the only
value one layer hands the next, is a segmented scan.  The vector backend
(:mod:`repro.batch.perf`) walks arrays of design points and batch sizes;
:class:`Simulator` walks a grid of one chip and one batch and reads each
:class:`LayerTiming` off the layer axis, so both backends run one walk.
Every count is an integer-valued float64, exact below 2**53; the walk
refuses a graph or batch whose counts reach it.

A block's temporaries are freed before the next block makes its own, and
glibc gives the freed top of the heap back to the OS once it passes its
trim threshold, so every block would fault the same pages in again.  The
first walk raises that threshold (:data:`_TRIM_THRESHOLD_BYTES`) so the
heap stays mapped between blocks.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.cache.keys import stable_hash
from repro.errors import MappingError
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

    @property
    def tables(self) -> "_LayerTables":
        """The walk's layer tables, built once per spec object.

        Kept in ``_tables``, outside the dataclass fields, like
        :attr:`digest`.
        """
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = _LayerTables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

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

#: Elements (layers x batch rows x points) one block of the walk spans.
#: Blocks take whole GEMM groups up to it; a group that alone exceeds it
#: over every point splits the points too.  Sized by measurement
#: (docs/performance.md): on the 210-point x 9-row Table I walk, 2**14
#: ran slower and 2**16 no faster, and 2**15 added ~1.7 MB of peak RSS.
_BLOCK_ELEMENTS = 2**15

#: float64 holds every integer below this exactly.
_EXACT = 2**53

#: glibc's trim threshold from the first walk on: freed heap up to this
#: size stays mapped for the next block instead of being faulted back in.  A
#: repeat 210-point x 9-row Table I walk of the three paper workloads
#: took ~20k minor page faults at the default and none at this value.
_TRIM_THRESHOLD_BYTES = 16 * 2**20

#: ``mallopt``'s parameter number for the trim threshold (glibc
#: ``malloc.h``).
_M_TRIM_THRESHOLD = -1


@functools.cache
def _keep_heap() -> None:
    """Raise glibc's trim threshold, once per process; without glibc's
    ``mallopt`` (another libc or OS) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


#: The :class:`ArchView` fields that may hold one value per design point.
_POINT_FIELDS = tuple(
    f.name for f in dataclasses.fields(ArchView) if f.name != "dataflow"
)


def _column(layers, *names: str, dtype=np.float64) -> np.ndarray:
    """Each layer's sum of the fields ``names``, shaped ``(layers, 1, 1)``."""
    values = [sum(getattr(layer, name) for name in names) for layer in layers]
    return np.array(values, dtype=dtype).reshape(-1, 1, 1)


class _LayerTables:
    """A spec's layers as the walk's columns, built once per spec.

    The GEMM layers and the vector layers form two tables of per-layer
    constants, each column shaped ``(layers, 1, 1)`` so it broadcasts
    over a ``(rows, points)`` grid of batch sizes and design points.
    ``gemm_at``/``vector_at`` give each table row's position in the
    graph.

    The layers fall into groups: a GEMM and the vector layers up to the
    next GEMM (the first group also holds any vector layers before the
    first GEMM).  ``cuts`` holds, at every group boundary, how many
    layers, GEMM rows, vector rows and scan rows precede it.  The scan
    rows (``scan``, vector-table rows) are the fusable layers that drain
    through their group's GEMM (``scan_gemm``, a GEMM-table row): a GEMM
    opens a run of them and a non-fusable vector layer closes it;
    ``scan_start`` is the scan row that opens each one's run.
    """

    def __init__(self, spec: "GraphSpec"):
        gemms: List[LayerSpec] = []
        vectors: List[LayerSpec] = []
        gemm_at: List[int] = []
        vector_at: List[int] = []
        scan: List[int] = []
        scan_gemm: List[int] = []
        scan_start: List[int] = []
        cuts = [(0, 0, 0, 0)]
        run: Optional[int] = None  # the open run's first scan row
        for position, layer in enumerate(spec.layers):
            if layer.has_gemm:
                if gemms:
                    cuts.append(
                        (position, len(gemms), len(vectors), len(scan))
                    )
                gemm_at.append(position)
                gemms.append(layer)
                run = len(scan)
                continue
            if not layer.fusable:
                run = None
            elif run is not None:
                scan.append(len(vectors))
                scan_gemm.append(len(gemms) - 1)
                scan_start.append(run)
            vector_at.append(position)
            vectors.append(layer)
        if spec.layers:
            cuts.append(
                (len(spec.layers), len(gemms), len(vectors), len(scan))
            )

        self.params_bytes = spec.total_params_bytes
        self.gemm_at = np.array(gemm_at, dtype=np.intp)
        self.gemm_m = _column(gemms, "gemm_m")
        self.gemm_k = _column(gemms, "gemm_k")
        self.gemm_n = _column(gemms, "gemm_n")
        self.gemm_s2d = _column(gemms, "space_to_depth", dtype=bool)
        self.folds_stem = bool(self.gemm_s2d.any())
        self.gemm_vector_ops = _column(gemms, "vector_ops")
        self.gemm_io = _column(gemms, "input_bytes", "output_bytes")
        self.gemm_params = _column(gemms, "params_bytes")

        self.vector_at = np.array(vector_at, dtype=np.intp)
        self.vector_ops = _column(vectors, "vector_ops")
        self.vector_simd = _column(vectors, "simd")
        self.vector_launch = _column(vectors, "pays_launch")
        self.vector_io = _column(vectors, "input_bytes", "output_bytes")
        self.vector_reads = _column(vectors, "input_bytes", "params_bytes")
        self.vector_writes = _column(vectors, "output_bytes")
        self.vector_params = _column(vectors, "params_bytes")

        # Per-sample sums whose batch-scaled totals need no per-point work.
        self.vector_ops_total = sum(layer.vector_ops for layer in spec.layers)
        self.reads_total = self.vector_reads.sum()
        self.writes_total = self.vector_writes.sum()

        self.scan = np.array(scan, dtype=np.intp)
        self.scan_gemm = np.array(scan_gemm, dtype=np.intp)
        self.scan_start = np.array(scan_start, dtype=np.intp)
        self.cuts = [tuple(cut) for cut in cuts]
        self.cut_layers = np.array([cut[0] for cut in cuts], dtype=np.intp)
        self.widest_group = int(np.diff(self.cut_layers).max(initial=1))


class _Path:
    """A bandwidth the walk moves bytes over, for one slice of points."""

    def __init__(self, gbps, freq_ghz):
        refused = np.less_equal(gbps, 0)
        self.refused = refused if np.any(refused) else None
        self.bytes_per_s = np.where(np.greater(gbps, 0), gbps, 1.0) * GIGA
        self.freq_ghz = freq_ghz

    def cycles(self, moved: np.ndarray) -> np.ndarray:
        """Cycles to move ``moved`` bytes.

        Every byte count is >= 0, and the ceiling of 0 cycles is 0.
        """
        if self.refused is not None and np.any((moved > 0) & self.refused):
            raise MappingError("traffic on a zero-bandwidth path")
        cycles = moved / self.bytes_per_s
        cycles *= self.freq_ghz
        cycles *= GIGA
        return np.ceil(cycles, out=cycles)


def _blocks(tables: _LayerTables, cap: int) -> Iterator[tuple]:
    """Runs of whole groups of at most ``cap`` layers (one group if it
    alone is larger), as each run's first and last cut."""
    starts = tables.cut_layers
    first = 0
    while first < len(starts) - 1:
        found = np.searchsorted(starts, starts[first] + cap, side="right")
        last = max(first + 1, int(found) - 1)
        yield tables.cuts[first], tables.cuts[last]
        first = last


def _overlap(bounds: tuple, opt: OptimizationConfig, compute: bool):
    """A layer's cycles from its bounds: their max with double buffering;
    without it, data movement serializes with compute (``compute`` says
    whether ``bounds[0]`` is TU compute).  The first two bounds span the
    block's full shape."""
    if opt.double_buffering:
        cycles = np.maximum(bounds[0], bounds[1])
        for bound in bounds[2:]:
            np.maximum(cycles, bound, out=cycles)
        return cycles
    moved = bounds[1:] if compute else bounds
    cycles = moved[0] + moved[1]
    for bound in moved[2:]:
        cycles += bound
    return bounds[0] + cycles if compute else cycles


def _first_max(bounds: tuple) -> np.ndarray:
    """Each layer's bound index: the first maximum, as ``list.index(max)``
    picks it."""
    return np.argmax(np.stack(np.broadcast_arrays(*bounds)), axis=0)


def _point_count(arch: ArchView) -> int:
    """How many design points the view's array fields hold (1 if none)."""
    shape = np.broadcast_shapes(
        *(np.shape(getattr(arch, name)) for name in _POINT_FIELDS)
    )
    return shape[-1] if shape else 1


def _point_slice(arch: ArchView, lo: int, hi: int) -> ArchView:
    """``arch`` restricted to points ``lo:hi``."""
    return dataclasses.replace(
        arch,
        **{
            name: getattr(arch, name)[lo:hi]
            for name in _POINT_FIELDS
            if np.ndim(getattr(arch, name))
        },
    )


def _inexact(spec: "GraphSpec") -> MappingError:
    return MappingError(
        f"workload {spec.name!r}: a simulated count reaches 2**53, past "
        "which float64 no longer holds integers exactly"
    )


def walk_graph(
    spec: GraphSpec,
    arch: ArchView,
    batch,
    opt: OptimizationConfig,
    per_layer: bool = False,
) -> dict:
    """Simulate one batch of ``spec`` on ``arch``.

    ``batch`` is a number or a ``(rows, 1)`` array of batch sizes, and
    the view's fields are numbers or ``(points,)`` arrays, so one walk
    simulates every design point at every batch size.  Returns
    ``total_cycles``, ``latency_s``, ``throughput_fps``,
    ``achieved_tops`` and the activity factors, each shaped ``(rows,
    points)`` (``points`` is 1 when every field is a number).  With
    ``per_layer``, it also returns ``layer_cycles``, ``layer_bound`` (the
    index of each layer's first largest bound) and ``layer_vector_ops``,
    shaped ``(layers, rows, points)`` in graph order.

    Raises:
        MappingError: traffic on a zero-bandwidth path, or a count that
            reaches 2**53.
    """
    _keep_heap()
    tables = spec.tables
    batch = np.reshape(np.asarray(batch, dtype=np.float64), (-1, 1))
    if spec.total_macs * int(batch.max()) * OPS_PER_MAC >= _EXACT:
        raise _inexact(spec)
    points = _point_count(arch)
    rows = len(batch)
    step = points
    if rows * tables.widest_group * points > _BLOCK_ELEMENTS:
        step = max(1, _BLOCK_ELEMENTS // (rows * tables.widest_group))
    cap = max(1, _BLOCK_ELEMENTS // (rows * step))
    keep = None
    if per_layer:
        grid = (len(spec.layers), rows, points)
        keep = {
            "layer_cycles": np.empty(grid),
            "layer_bound": np.empty(grid, dtype=np.intp),
            "layer_vector_ops": np.empty(grid),
        }
    parts = [
        _walk_points(
            tables,
            batch,
            arch if step == points else _point_slice(arch, lo, lo + step),
            opt,
            cap,
            keep,
            slice(lo, lo + step),
        )
        for lo in range(0, points, step)
    ]
    sums = {
        name: np.concatenate([part[name] for part in parts], axis=-1)
        for name in parts[0]
    }
    vector_ops = tables.vector_ops_total * batch + sums["merge_ops"]
    mem_read = tables.reads_total * batch + sums["reads"]
    mem_write = tables.writes_total * batch + sums["writes"]
    total_cycles, tu_macs, occupied, noc, offchip = (
        sums[name] for name in ("cycles", "macs", "occupied", "noc", "offchip")
    )
    counts = (
        total_cycles, tu_macs, occupied, vector_ops,
        mem_read, mem_write, noc, offchip,
    )
    if any(np.any(count >= _EXACT) for count in counts):
        raise _inexact(spec)

    freq = arch.freq_ghz
    latency_s = total_cycles / (freq * GIGA)
    ran = latency_s > 0
    safe_latency = np.where(ran, latency_s, 1.0)
    cycles_floor = np.maximum(total_cycles, 1)
    window = np.maximum(latency_s, 1e-12)
    tu_util = np.minimum(
        tu_macs / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    occupancy = np.minimum(
        occupied / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    out = {
        "total_cycles": total_cycles,
        "latency_s": latency_s,
        "throughput_fps": np.where(ran, batch / safe_latency, 0.0),
        "achieved_tops": np.where(
            ran,
            spec.total_macs * batch * OPS_PER_MAC / safe_latency / 1e12,
            0.0,
        ),
        "tu_utilization": tu_util,
        "tu_occupancy": np.maximum(occupancy, tu_util),
        "vu_utilization": np.minimum(
            vector_ops / (arch.vu_lanes_total * cycles_floor), 1.0
        ),
        "su_activity": np.minimum(0.2 + 0.3 * tu_util, 1.0),
        "mem_read_gbps": mem_read / window / GIGA,
        "mem_write_gbps": mem_write / window / GIGA,
        "noc_gbps": noc / window / GIGA,
        "offchip_gbps": offchip / window / GIGA,
    }
    if keep is not None:
        out.update(keep)
    return out


def _walk_points(
    tables: _LayerTables,
    batch: np.ndarray,
    arch: ArchView,
    opt: OptimizationConfig,
    cap: int,
    keep: Optional[dict],
    columns: slice,
) -> dict:
    """Walk every block of ``cap`` layers over one slice of points.

    Returns the sums over layers, each shaped ``(rows, points)``, and
    writes per-layer values into ``keep``'s ``columns`` when ``keep`` is
    a dict.  Each block's arrays live only inside the helpers that make
    them, so they are freed before the next block's are made.
    """
    gemm_m = tables.gemm_m * batch
    gemm_k = tables.gemm_k
    if tables.folds_stem:
        folded_m, folded_k = fold_stem(gemm_m, gemm_k, np)
        gemm_m = np.where(tables.gemm_s2d, folded_m, gemm_m)
        gemm_k = np.where(tables.gemm_s2d, folded_k, gemm_k)
    sums = {
        name: np.zeros((len(batch), _point_count(arch)))
        for name in (
            "cycles", "macs", "occupied", "merge_ops", "reads", "writes",
            "noc", "offchip",
        )
    }
    capacity = arch.mem_capacity_bytes
    # Weights stream in once per batch when they do not fit (they are
    # reused across every sample of the layer-wise schedule); the working
    # set beyond the activation budget spills to DRAM and comes back for
    # the next layer.
    resident = tables.params_bytes <= capacity * (1 - _ACTIVATION_MEM_SHARE)
    budget = capacity * _ACTIVATION_MEM_SHARE
    least_budget = np.min(budget)

    def offchip_bytes(params, io_bytes):
        weights = np.where(resident, 0.0, params)
        working_set = io_bytes * batch
        if working_set.max() <= least_budget:
            return weights  # nothing spills: the spill terms are all 0
        return weights + 2.0 * np.maximum(0.0, working_set - budget)

    read, write, dram, noc = (
        _Path(gbps, arch.freq_ghz)
        for gbps in (
            arch.mem_read_gbps,
            arch.mem_write_gbps,
            arch.offchip_gbps,
            arch.noc_gbps,
        )
    )
    lanes = arch.vu_lanes_total
    merge_lanes = np.maximum(lanes, 1)
    pointwise_lanes = np.maximum(lanes * _POINTWISE_SIMD, 1)
    launch = opt.layer_launch_cycles

    def gemm_bounds(g: slice) -> tuple:
        """Map GEMM rows ``g``, add their traffic to the sums, and return
        their bounds."""
        mapping = map_gemm_dims(
            gemm_m[g], gemm_k[g], tables.gemm_n[g], arch, opt, np
        )
        merge = mapping.merge_vector_ops
        own_ops = tables.gemm_vector_ops[g] * batch
        spill = offchip_bytes(tables.gemm_params[g], tables.gemm_io[g])
        sums["macs"] += mapping.useful_macs.sum(axis=0)
        sums["occupied"] += mapping.occupied_mac_cycles.sum(axis=0)
        if np.ndim(merge):  # output stationary merges nothing: 0
            sums["merge_ops"] += merge.sum(axis=0)
        sums["reads"] += mapping.mem_read_bytes.sum(axis=0)
        sums["writes"] += mapping.mem_write_bytes.sum(axis=0)
        sums["noc"] += mapping.noc_bytes.sum(axis=0)
        sums["offchip"] += spill.sum(axis=0)
        if keep is not None:
            at = tables.gemm_at[g]
            keep["layer_vector_ops"][at, :, columns] = own_ops + merge
        return (
            mapping.compute_cycles,
            np.ceil(merge / merge_lanes + own_ops / pointwise_lanes),
            read.cycles(mapping.mem_read_bytes),
            write.cycles(mapping.mem_write_bytes),
            dram.cycles(spill),
            noc.cycles(mapping.noc_bytes),
        )

    def gemm_layers(g: slice) -> np.ndarray:
        """Walk GEMM rows ``g``; returns the credit each leaves its
        group's fusable layers: its spare cycles beyond its own VU work."""
        bounds = gemm_bounds(g)
        cycles = _overlap(bounds, opt, compute=True) + launch
        credit = np.maximum(0, cycles - bounds[1])
        finish(cycles, bounds, tables.gemm_at[g])
        return credit

    def vector_layers(v: slice, s: slice, g0: int, credit) -> None:
        """Walk vector rows ``v``, whose scan rows ``s`` drain through
        the credit of the GEMM rows from ``g0`` on."""
        own_ops = tables.vector_ops[v] * batch
        vu = np.ceil(own_ops / np.maximum(lanes * tables.vector_simd[v], 1))
        if s.stop > s.start:
            # Pointwise layers drain through their GEMM's output path:
            # each keeps only the residue beyond the credit that the
            # fusable layers before it in the run left over.
            at = tables.scan[s] - v.start
            fused = vu[at]
            before = np.cumsum(fused, axis=0)
            before -= fused
            before -= before[tables.scan_start[s] - s.start]
            left = np.maximum(0, credit[tables.scan_gemm[s] - g0] - before)
            vu[at] = fused - np.minimum(fused, left)
        spill = offchip_bytes(tables.vector_params[v], tables.vector_io[v])
        sums["offchip"] += spill.sum(axis=0)
        bounds = (
            vu,
            read.cycles(tables.vector_reads[v] * batch),
            write.cycles(tables.vector_writes[v] * batch),
            dram.cycles(spill),
        )
        # Fused pointwise residues ride the pipeline; every other layer
        # pays the serial layer-launch cost.
        cycles = (
            _overlap(bounds, opt, compute=False)
            + tables.vector_launch[v] * launch
        )
        finish(cycles, bounds, tables.vector_at[v])
        if keep is not None:
            keep["layer_vector_ops"][tables.vector_at[v], :, columns] = own_ops

    def finish(cycles, bounds: tuple, at: np.ndarray) -> None:
        """Add the layers' cycles (at least 1 each) to the sums."""
        cycles = np.maximum(cycles, 1)
        sums["cycles"] += cycles.sum(axis=0)
        if keep is not None:
            keep["layer_cycles"][at, :, columns] = cycles
            keep["layer_bound"][at, :, columns] = _first_max(bounds)

    for (_, g0, v0, s0), (_, g1, v1, s1) in _blocks(tables, cap):
        credit = gemm_layers(slice(g0, g1)) if g1 > g0 else None
        if v1 > v0:
            vector_layers(slice(v0, v1), slice(s0, s1), g0, credit)
    return sums


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

    def run(
        self, graph: Graph, batch: int = 1, per_layer: bool = True
    ) -> SimulationResult:
        """Simulate one batch of ``graph`` end to end.

        The walk runs over a grid of one (this chip, this batch); each
        layer's :class:`LayerTiming` is read off its layer axis.  With
        ``per_layer=False`` the result's ``layers`` is empty and no
        per-layer value is kept; every other field is the same.
        """
        if batch < 1:
            raise MappingError(f"batch must be >= 1, got {batch}")
        spec = GraphSpec.of(graph, self.opt)
        out = walk_graph(spec, self.arch, batch, self.opt, per_layer)
        layers: tuple[LayerTiming, ...] = ()
        if per_layer:
            cycles, bounds, vector_ops = (
                out[key].ravel().tolist()
                for key in (
                    "layer_cycles", "layer_bound", "layer_vector_ops"
                )
            )
            layers = tuple(
                LayerTiming(
                    name=layer.name,
                    cycles=int(layer_cycles),
                    bound=(
                        _GEMM_BOUNDS if layer.has_gemm else _VECTOR_BOUNDS
                    )[bound],
                    useful_macs=layer.macs * batch,
                    vector_ops=int(layer_ops),
                )
                for layer, layer_cycles, bound, layer_ops in zip(
                    spec.layers, cycles, bounds, vector_ops
                )
            )
        return SimulationResult(
            graph_name=graph.name,
            batch=batch,
            total_cycles=int(out["total_cycles"].item()),
            latency_s=out["latency_s"].item(),
            throughput_fps=out["throughput_fps"].item(),
            achieved_tops=out["achieved_tops"].item(),
            peak_tops=self.chip.peak_tops(self.ctx),
            activity=ActivityFactors(
                **{name: out[name].item() for name in _ACTIVITY_FIELDS}
            ),
            layers=layers,
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
        return self.latency_limited_run(
            graph, slo_ms, candidates, per_layer=False
        ).batch

    def latency_limited_run(
        self,
        graph: Graph,
        slo_ms: float = DEFAULT_LATENCY_SLO_MS,
        candidates: tuple[int, ...] = BATCH_CANDIDATES,
        per_layer: bool = True,
    ) -> SimulationResult:
        """The run at :meth:`latency_limited_batch`'s batch.

        Scans the sorted candidates once and returns the winner's run,
        so callers need not simulate the chosen batch a second time.
        ``per_layer`` is :meth:`run`'s.
        """
        runs = {
            batch: self.run(graph, batch, per_layer)
            for batch in sorted(candidates)
        }
        best = candidates[0]
        for batch, result in runs.items():
            if result.latency_ms <= slo_ms:
                best = batch
        return runs[best]
