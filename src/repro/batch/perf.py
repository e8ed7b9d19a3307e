"""Batched performance simulation: the ``repro/perf`` stack over arrays.

The scalar path evaluates workloads one design point at a time: build the
chip, derive the :class:`~repro.perf.mapping.ArchView`, run
:meth:`~repro.perf.simulator.Simulator.run`, then combine the activity
factors in :func:`~repro.power.runtime.runtime_power`.  This module runs
the one cycle walk, :func:`~repro.perf.simulator.walk_graph`, over NumPy
arrays of *all* points of a sweep
(:meth:`~repro.perf.mapping.ArchView.derive`); ``Simulator.run`` runs it
over a grid of one, so the two backends agree by construction.  Every
count is an integer-valued float64, and the walk refuses a workload
whose counts reach 2**53, where float64 would start to round.

The walk's leading axis is the layers, in blocks of whole GEMM groups;
the points form the last axis, and batch sizes a second one: every op is
elementwise, so one pass over a ``(rows, points)`` batch array simulates
all of a sweep's batch regimes, including every candidate of the
latency-bound search, at once.

Runtime power is :func:`~repro.power.runtime.runtime_power_report` fed
by :func:`~repro.power.runtime.runtime_power_inputs`, the functions the
scalar ``runtime_power`` calls, over per-point arrays: the Mem and NoC
energies come from ``estimate_grid`` and the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.core import GridAxes
from repro.batch.substrate import TechSubstrate
from repro.errors import MappingError
from repro.perf.graph import Graph
from repro.perf.mapping import ArchView
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import (
    BATCH_CANDIDATES,
    DEFAULT_LATENCY_SLO_MS,
    GraphSpec,
    walk_graph,
)
from repro.power.runtime import (
    ActivityFactors,
    runtime_power_inputs,
    runtime_power_report,
)


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

    def regimes(self) -> list:
        """Every point's regime label (mirrors ``evaluate_point``)."""
        if self.batch_spec == "latency-bound":
            return ["latency-bound"] * len(self.batch)
        batches = np.asarray(self.batch, dtype=np.int64).tolist()
        return [f"bs={batch}" for batch in batches]


def simulate_workloads(
    sub: TechSubstrate,
    grid: Dict[str, np.ndarray],
    axes: GridAxes,
    workloads: Sequence[Tuple[str, Graph]],
    batches: Sequence[object],
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
    opt: Optional[OptimizationConfig] = None,
    specs: Optional[Sequence[Tuple[str, GraphSpec]]] = None,
) -> List[BatchOutcome]:
    """Evaluate every (batch regime, workload) pair over all points.

    ``grid`` is :func:`~repro.batch.kernels.estimate_grid` over the
    per-point values ``axes``.  Each workload is simulated once, over a
    ``(rows, points)`` batch array.  The rows are the sorted
    ``BATCH_CANDIDATES`` when any spec is ``"latency-bound"``, then every
    fixed batch not already among them.
    The latency-bound batch is ``Simulator.latency_limited_batch`` per
    point: the last sorted candidate whose latency meets the SLO, else
    ``BATCH_CANDIDATES[0]``.  Each outcome gathers its row per point.

    The outer loops mirror ``evaluate_point`` exactly — batch regimes
    outer, workloads inner — so the flattened outcome order matches the
    scalar path's ``DesignPointResult.outcomes``.  Callers that already
    flattened their graphs (the estimator's cache-key construction does)
    pass ``specs`` to skip re-deriving them from ``workloads``.
    """
    from repro.batch.kernels import noc_pj_per_byte

    candidates = sorted(BATCH_CANDIDATES)
    rows = list(candidates) if "latency-bound" in batches else []
    for batch_spec in batches:
        if batch_spec != "latency-bound" and int(batch_spec) not in rows:
            rows.append(int(batch_spec))
    if not rows:
        return []

    opt = opt if opt is not None else OptimizationConfig.all_on()
    arch = ArchView.derive(
        sub.shape,
        axes,
        sub.ctx.freq_ghz,
        grid["mem_peak_read_gbps"],
        grid["mem_peak_write_gbps"],
    )
    peak_tops = grid["peak_tops"]
    power_inputs = runtime_power_inputs(
        sub.ctx,
        sub.shape,
        axes,
        sub.parts,
        (grid["mem_read_energy_pj"], grid["mem_write_energy_pj"]),
        noc_pj_per_byte(
            sub, axes.cores_x, axes.cores_y, grid["core_area_mm2"]
        ),
    )

    if specs is None:
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
    if min(rows) < 1:
        raise MappingError(f"batch must be >= 1, got {min(rows)}")
    sizes = np.asarray(rows, dtype=np.float64)
    points = np.shape(axes.cores_x)
    stacked = sizes.reshape(sizes.shape + (1,) * len(points))
    shape = sizes.shape + points
    runs = []
    for _, spec in specs:
        run = walk_graph(spec, arch, stacked, opt)
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
                row = np.full(points, rows.index(int(batch_spec)))
            pick = row[np.newaxis]
            result = {
                key: np.take_along_axis(
                    np.broadcast_to(value, shape), pick, axis=0
                )[0]
                for key, value in run.items()
            }
            achieved = result["achieved_tops"]
            power = runtime_power_report(
                sub.ctx.freq_ghz,
                ActivityFactors.unchecked(result),
                grid["leakage_w"],
                **power_inputs,
            ).total_w
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
