"""Batch estimation: whole-sweep evaluation in a handful of array ops.

The scalar path builds a :class:`~repro.arch.chip.Chip` object tree per
design point and walks it; for a Table I sweep that repeats the same
closed-form arithmetic a few hundred times with different ``(X, N, Tx,
Ty)``.  :class:`BatchEstimator` splits each point's configuration into a
shape and per-point values (:func:`classify_point`): a datacenter preset
point takes the preset's one shape and the values of its rule,
:func:`~repro.config.presets.datacenter_axes`, without a build; any other
point is built once and split (:func:`~repro.arch.chip.split_config`).
It groups the points by shape, hoists everything point-independent into a
:class:`~repro.batch.substrate.TechSubstrate` per ``(context, shape)``,
and evaluates each group through the NumPy kernels in
:mod:`repro.batch.kernels` and the batched performance layer in
:mod:`repro.batch.perf`.  Every shape vectorizes.

The vector path never produces a number where the scalar path raises:
a failed ``build()`` is reported as :data:`BUILD_FAILED` with its error
attached, and a point the model rejects goes back with
:data:`SRAM_INFEASIBLE` or :data:`MODEL_REJECTED` for the scalar path's
authentic error.  The batched outputs pass the NaN/inf/range screens
the component cache applies (:mod:`repro.integrity.contracts`).

Successful batched summaries are written through the process-wide
estimate cache (:mod:`repro.cache`), keyed by a digest of the context,
shape, workload set and batch regimes shared by the call, plus the
point's coordinates and per-point values, so a warm re-sweep skips the
kernels entirely instead of losing to the scalar path's cached walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.chip import ChipConfig, split_config
from repro.arch.component import ModelContext
from repro.arch.core import GridAxes
from repro.arch.memory import oversized_dff
from repro.batch.substrate import substrate_for
from repro.cache import get_estimate_cache, stable_hash
from repro.config.presets import (
    datacenter_axes,
    datacenter_context,
    datacenter_shape,
)
from repro.dse.journal import SummaryOutcome, SummaryResult
from repro.dse.space import DesignPoint
from repro.errors import NeuroMeterError

#: Grid fields screened before any point is materialized.
_SCREENED_FIELDS = ("area_mm2", "tdp_w", "peak_tops", "timing_ns")

#: Fallback reason: the point's ``build()`` itself raised; the original
#: error is preserved in :attr:`BatchResult.errors` so callers can
#: surface it instead of a misleading "config differs" story.
BUILD_FAILED = "build-failed"
#: Fallback reason: the vectorized SRAM organization search found no
#: feasible organization (scalar path raises OptimizationError).
SRAM_INFEASIBLE = "sram-infeasible"
#: Fallback reason: a batched output failed the NaN/inf/range screen.
SCREEN_FAILED = "screen-failed"
#: Fallback reason: the model rejects the built point (a DFF Mem above
#: 64 KiB, workloads on a core without tensor units, a shared block it
#: cannot estimate).
MODEL_REJECTED = "model-rejected"

#: Every fallback reason the vector backend can report, for operators'
#: totals (journal rows, ``neurometer report``, the daemon's /status).
FALLBACK_REASONS = (
    BUILD_FAILED,
    SRAM_INFEASIBLE,
    SCREEN_FAILED,
    MODEL_REJECTED,
)


def classify_point(
    point: DesignPoint,
) -> Tuple[
    Optional[ChipConfig], Optional[GridAxes], Optional[BaseException]
]:
    """Split a point's configuration into shape and per-point values.

    A point that builds the datacenter preset (its ``build`` is
    :meth:`DesignPoint.build`) takes the preset's shape and its values
    from the preset's rule, :func:`datacenter_axes`, without a build.
    Any other point is built once and its configuration split.  Returns
    ``(shape, values, None)``, or ``(None, None, error)`` when
    ``build()`` itself raises — the error is returned, not swallowed, so
    the caller can report :data:`BUILD_FAILED` with the authentic cause.
    """
    if getattr(type(point), "build", None) is DesignPoint.build:
        values = datacenter_axes(point.x, point.n, point.tx, point.ty)
        return datacenter_shape(), values, None
    try:
        config = point.build().config
    except Exception as error:
        return None, None, error
    shape, values = split_config(config)
    return shape, values, None


@dataclass(frozen=True)
class BatchResult:
    """Per-point outcome of one vectorized batch evaluation.

    ``summaries[i]`` is the materialized result for ``points[i]``, or
    ``None`` when the point must take the scalar path; in that case
    ``fallback_reasons[i]`` names why (one of
    :data:`FALLBACK_REASONS`), and for build failures ``errors[i]``
    holds the original exception ``build()`` raised.
    """

    points: Tuple[DesignPoint, ...]
    summaries: Tuple[Optional[SummaryResult], ...]
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    errors: Dict[int, BaseException] = field(default_factory=dict)

    @property
    def fallback_indices(self) -> Tuple[int, ...]:
        """Indices that must be (re-)evaluated through the scalar path."""
        return tuple(sorted(self.fallback_reasons))

    @property
    def vectorized_count(self) -> int:
        return len(self.points) - len(self.fallback_reasons)

    def fallback_totals(self) -> Dict[str, int]:
        """Reason -> count over this batch (omits zero-count reasons)."""
        totals: Dict[str, int] = {}
        for reason in self.fallback_reasons.values():
            totals[reason] = totals.get(reason, 0) + 1
        return totals


class BatchEstimator:
    """Evaluate many design points against one fixed tech substrate.

    Args:
        ctx: Model context shared by every point; defaults to the Table I
            datacenter context.
    """

    def __init__(self, ctx: Optional[ModelContext] = None) -> None:
        self.ctx = ctx if ctx is not None else datacenter_context()

    def estimate_points(
        self,
        points: Iterable[DesignPoint],
        *,
        workloads: Sequence[Tuple[str, object]] = (),
        batches: Sequence[object] = (),
        latency_slo_ms: Optional[float] = None,
    ) -> BatchResult:
        """Evaluate ``points`` through the kernels, one grid per shape.

        With ``workloads``/``batches`` supplied, each summary carries the
        full per-(regime, workload) outcome rows the scalar
        ``evaluate_point`` would produce (including the latency-bound
        batch search when ``"latency-bound"`` appears in ``batches``).

        Failed, rejected and screen-failing points come back with
        ``summaries[i] is None`` and a fallback reason — the caller (the
        sweep engine's ``auto``/``vector`` backends) re-evaluates them
        through the scalar path so failure records match the scalar
        backend exactly.
        """
        resolved = tuple(points)
        reasons: Dict[int, str] = {}
        errors: Dict[int, BaseException] = {}
        # Points of one sweep usually share a shape (preset points the
        # very object): compare with the previous point's before hashing
        # the shape.
        groups: Dict[ChipConfig, List[Tuple[int, GridAxes]]] = {}
        shape: Optional[ChipConfig] = None
        members: List[Tuple[int, GridAxes]] = []
        for index, point in zip(itertools.count(), resolved):
            found, values, error = classify_point(point)
            if error is not None:
                reasons[index] = BUILD_FAILED
                errors[index] = error
                continue
            if found is not shape and found != shape:
                shape = found
                members = groups.setdefault(shape, [])
            members.append((index, values))
        summaries: List[Optional[SummaryResult]] = [None] * len(resolved)
        for shape, members in groups.items():
            self._estimate_shape(
                shape,
                resolved,
                members,
                tuple(workloads),
                tuple(batches),
                latency_slo_ms,
                summaries,
                reasons,
            )
        return BatchResult(
            points=resolved,
            summaries=tuple(summaries),
            fallback_reasons=reasons,
            errors=errors,
        )

    # -- one shape ------------------------------------------------------------

    def _estimate_shape(
        self,
        shape: ChipConfig,
        resolved: Tuple[DesignPoint, ...],
        members: List[Tuple[int, GridAxes]],
        workloads: Tuple[Tuple[str, object], ...],
        batches: Tuple[object, ...],
        latency_slo_ms: Optional[float],
        summaries: List[Optional[SummaryResult]],
        reasons: Dict[int, str],
    ) -> None:
        """Evaluate one shape's points; fill ``summaries``/``reasons``.

        ``members`` pairs each point's index with its per-point values.

        Cache-hit points skip the kernels entirely; the misses run
        through one ``estimate_grid`` + ``simulate_workloads`` pass and
        every clean result is written back through the cache.  Points
        the model rejects are never cached, so they go back every time.
        """
        from repro.batch.kernels import estimate_grid
        from repro.batch.perf import (
            DEFAULT_LATENCY_SLO_MS,
            GraphSpec,
            simulate_workloads,
        )
        from repro.perf.optimizations import OptimizationConfig

        if workloads and shape.core.tu is None:
            # The GEMM mapper needs tensor units (``ArchView.of`` raises).
            for index, _ in members:
                reasons[index] = MODEL_REJECTED
            return
        slo = (
            float(latency_slo_ms)
            if latency_slo_ms is not None
            else DEFAULT_LATENCY_SLO_MS
        )
        opt = OptimizationConfig.all_on()
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
        sub = substrate_for(self.ctx, shape)
        cache = get_estimate_cache()
        if not cache.enabled:
            cache = None
        keys: Dict[int, str] = {}
        misses: List[Tuple[int, GridAxes]] = []
        # The context, shape, workload specs, batch list, and SLO are
        # shared by every point of the shape; digest them once per call,
        # with the substrate and each (large) graph spec standing in by
        # their memoized digests.
        shared = (
            stable_hash(
                "batch-shared",
                sub.digest,
                [(name, spec.digest) for name, spec in specs],
                batches,
                slo,
            )
            if cache is not None
            else ""
        )
        for index, values in members:
            if cache is None:
                misses.append((index, values))
                continue
            point = resolved[index]
            # The summary names its point, so the coordinates join the
            # values that set its numbers.
            key = stable_hash(
                "batch-point",
                shared,
                (point.x, point.n, point.tx, point.ty) + values,
            )
            keys[index] = key
            hit, value = cache.get(key)
            if hit and isinstance(value, SummaryResult):
                summaries[index] = value
            else:
                misses.append((index, values))
        if not misses:
            return

        indices = [index for index, _ in misses]
        axes = GridAxes.stack([values for _, values in misses])
        # OnChipMemory rejects a DFF Mem above 64 KiB.
        rejected = oversized_dff(shape.core.mem.cell, axes.mem_capacity_bytes)
        try:
            grid = estimate_grid(sub, axes)
            feasible = np.asarray(grid["feasible"], dtype=bool) & ~rejected
            clean = self._screen(grid)
            outcomes = []
            if specs and bool(np.any(feasible & clean)):
                outcomes = simulate_workloads(
                    sub,
                    grid,
                    axes,
                    [(name, None) for name, _ in specs],
                    batches,
                    latency_slo_ms=slo,
                    specs=specs,
                )
                clean &= self._screen_outcomes(outcomes, feasible.shape)
        except NeuroMeterError:
            # A block every point of the shape shares cannot be modeled;
            # the scalar path raises the same error for each point.
            for index in indices:
                reasons[index] = MODEL_REJECTED
            return
        # Each column leaves NumPy once per shape, not once per point.
        area, tdp, peak = (
            np.asarray(grid[name], dtype=float).tolist()
            for name in ("area_mm2", "tdp_w", "peak_tops")
        )
        columns = [
            (
                oc.workload,
                np.asarray(oc.batch, dtype=np.int64).tolist(),
                oc.regimes(),
                *(
                    np.asarray(values, dtype=float).tolist()
                    for values in (oc.achieved_tops, oc.utilization,
                                   oc.runtime_power_w, oc.latency_ms)
                ),
            )
            for oc in outcomes
        ]
        for offset, index, ok, infeasible_free, refused in zip(
            itertools.count(), indices, clean, feasible, rejected
        ):
            if refused:
                reasons[index] = MODEL_REJECTED
            elif not infeasible_free:
                reasons[index] = SRAM_INFEASIBLE
            elif not ok:
                reasons[index] = SCREEN_FAILED
            else:
                summary = SummaryResult(
                    point=resolved[index],
                    area_mm2=area[offset],
                    tdp_w=tdp[offset],
                    peak_tops=peak[offset],
                    outcomes=tuple(
                        SummaryOutcome(
                            workload=workload,
                            batch=batch[offset],
                            regime=regime[offset],
                            achieved_tops=achieved[offset],
                            utilization=utilization[offset],
                            runtime_power_w=power[offset],
                            latency_ms=latency[offset],
                        )
                        for workload, batch, regime, achieved, utilization,
                        power, latency in columns
                    ),
                )
                summaries[index] = summary
                if cache is not None:
                    cache.put(keys[index], summary)

    # -- screens ------------------------------------------------------------

    def _screen(self, grid: dict) -> "np.ndarray":
        """Vectorized NaN/inf/range screen over the batched outputs.

        Mirrors :func:`repro.integrity.contracts.screen_value`: every
        screened field must be finite and non-negative (and the headline
        metrics strictly positive, matching ``validate_result``).
        Infeasible points fail it too — they are NaN-poisoned by design —
        but are reported as SRAM-infeasible, for the authentic model
        error on the scalar path.
        """
        clean = np.ones(np.shape(grid["feasible"]), dtype=bool)
        for name in _SCREENED_FIELDS:
            values = np.asarray(grid[name], dtype=float)
            ok = np.isfinite(values)
            if name in ("area_mm2", "tdp_w", "peak_tops"):
                ok &= values > 0.0
            else:
                ok &= values >= 0.0
            clean &= ok
        return clean

    def _screen_outcomes(self, outcomes: list, shape: tuple) -> "np.ndarray":
        """Screen the batched workload outcomes (``validate_result`` set).

        Achieved TOPS and latency must be finite and non-negative,
        utilization a fraction, runtime power strictly positive, batch
        at least one — per point, across every (regime, workload) row.
        """
        clean = np.ones(shape, dtype=bool)
        for oc in outcomes:
            checks = (
                ("achieved_tops", oc.achieved_tops, 0.0, None),
                ("utilization", oc.utilization, 0.0, 1.0),
                ("runtime_power_w", oc.runtime_power_w, None, None),
                ("latency_ms", oc.latency_ms, 0.0, None),
                ("batch", oc.batch, 1.0, None),
            )
            for name, values, lo, hi in checks:
                values = np.asarray(values, dtype=float)
                ok = np.isfinite(values)
                if name == "runtime_power_w":
                    ok &= values > 0.0
                elif lo is not None:
                    ok &= values >= lo
                if hi is not None:
                    ok &= values <= hi
                clean &= ok
        return clean
