"""Batched performance simulation: the ``repro/perf`` stack over arrays.

The scalar path evaluates workloads one design point at a time: build the
chip, derive the :class:`~repro.perf.mapping.ArchView`, run
:meth:`~repro.perf.simulator.Simulator.run`, then combine the activity
factors in :func:`~repro.power.runtime.runtime_power`.  The cycle
simulation — the GEMM mapper and the layer walk — is written once, over
an array namespace: this module runs the same
:func:`~repro.perf.simulator.walk_graph` over NumPy arrays of *all*
points of a sweep (:meth:`~repro.perf.mapping.ArchView.of_grid`), so the
two backends agree by construction.  Integer intermediates stay below
2**53 on the Table I workloads, so float64 holds every count exactly.

The per-layer loop stays a Python loop (a graph has tens of layers); the
per-*point* dimension — the axis that grows with sweep size — is fully
vectorized, and so is a second, leading axis of batch sizes: every op is
elementwise, so one pass over a ``(rows, points)`` batch array simulates
all of a sweep's batch regimes, including every candidate of the
latency-bound search, at once.

Runtime power is still transcribed here (:func:`runtime_power_arrays`).
Energy coefficients that depend on the design tuple only through a
handful of unique values (the TU's per-active-cycle energy depends on
``X`` alone; the VReg's on ``(lanes, N)``) are evaluated through the
*real* scalar models once per unique value and scattered back into point
arrays, so the batched runtime power is bit-identical to the scalar
combination by construction.
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
from repro.perf.mapping import ArchView
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import (
    BATCH_CANDIDATES,
    DEFAULT_LATENCY_SLO_MS,
    GraphSpec,
    LayerSpec,
    walk_graph,
)
from repro.power.runtime import _DRAM_IDLE_FRACTION, _FILL_ENERGY_FRACTION
from repro.tech import calibration
from repro.units import dynamic_power_w


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
    arch: ArchView,
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
    arch = ArchView.of_grid(sub, grid, x, n, cores)
    peak_tops = grid["peak_tops"]
    coeffs = EnergyCoefficients(sub)
    noc_epb = noc_energy_per_byte_kernel(sub, tx, ty, grid["core_area_mm2"])

    if specs is None:
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
    if min(rows) < 1:
        raise MappingError(f"batch must be >= 1, got {min(rows)}")
    sizes = np.asarray(rows, dtype=np.float64)
    stacked = sizes.reshape(sizes.shape + (1,) * x.ndim)
    shape = np.broadcast(stacked, x).shape
    runs = []
    for _, spec in specs:
        run = walk_graph(spec, arch, stacked, opt, np)
        run["latency_ms"] = run["latency_s"] * 1e3
        runs.append(run)

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
                key: np.take_along_axis(
                    np.broadcast_to(value, shape), pick, axis=0
                )[0]
                for key, value in run.items()
            }
            achieved = result["achieved_tops"]
            power = runtime_power_arrays(
                sub, arch, grid, coeffs, n, noc_epb, result
            )
            outcomes.append(
                BatchOutcome(
                    workload=name,
                    batch_spec=batch_spec,
                    batch=sizes[row],
                    achieved_tops=achieved,
                    utilization=np.where(
                        peak_tops > 0,
                        achieved / np.where(peak_tops > 0, peak_tops, 1.0),
                        0.0,
                    ),
                    latency_ms=result["latency_ms"],
                    runtime_power_w=power,
                )
            )
    return outcomes
