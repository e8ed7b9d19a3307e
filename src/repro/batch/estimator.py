"""Batch estimation: whole-sweep evaluation in a handful of array ops.

The scalar path builds a :class:`~repro.arch.chip.Chip` object tree per
design point and walks it; for a Table I sweep that repeats the same
closed-form arithmetic a few hundred times with different ``(X, N, Tx,
Ty)``.  :class:`BatchEstimator` builds each point once and splits its
configuration into a shape and per-point values
(:func:`~repro.batch.substrate.split_config`), groups the points by
shape, hoists everything point-independent into a
:class:`~repro.batch.substrate.TechSubstrate` per ``(context, shape)``,
and evaluates each group through the NumPy kernels in
:mod:`repro.batch.kernels` and the batched performance layer in
:mod:`repro.batch.perf`.

The vector path is *opt-in safe*: :func:`classify_point` vectorizes a
point only when its shape is one the kernels model (anything else —
exotic datatypes, extra memories, explicit bandwidths — is reported for
scalar fallback, and a ``build()`` that *raises* is reported as
:data:`BUILD_FAILED` with the original error attached rather than being
misfiled as a config mismatch), and the batched outputs pass the same
NaN/inf/range screens the component cache applies
(:mod:`repro.integrity.contracts`), vectorized over the grid.

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

from repro.arch.chip import ChipConfig
from repro.arch.component import ModelContext
from repro.batch.substrate import (
    MODELED_SHAPES,
    GridAxes,
    split_config,
    substrate_for,
)
from repro.cache import get_estimate_cache, stable_hash
from repro.config.presets import datacenter_context
from repro.dse.journal import SummaryOutcome, SummaryResult
from repro.dse.space import DesignPoint

#: Grid fields screened before any point is materialized.
_SCREENED_FIELDS = ("area_mm2", "tdp_w", "peak_tops", "timing_ns")

#: Fallback reason: the point's chip config has a shape the kernels do
#: not model.
UNSUPPORTED_CONFIG = "unsupported-config"
#: Fallback reason: the point's ``build()`` itself raised; the original
#: error is preserved in :attr:`BatchResult.errors` so callers can
#: surface it instead of a misleading "config differs" story.
BUILD_FAILED = "build-failed"
#: Fallback reason: the vectorized SRAM organization search found no
#: feasible organization (scalar path raises OptimizationError).
SRAM_INFEASIBLE = "sram-infeasible"
#: Fallback reason: a batched output failed the NaN/inf/range screen.
SCREEN_FAILED = "screen-failed"

#: Every fallback reason the vector backend can report, for operators'
#: totals (journal rows, ``neurometer report``, the daemon's /status).
FALLBACK_REASONS = (
    UNSUPPORTED_CONFIG,
    BUILD_FAILED,
    SRAM_INFEASIBLE,
    SCREEN_FAILED,
)


def classify_point(
    point: DesignPoint,
) -> Tuple[
    Optional[ChipConfig], Optional[GridAxes], Optional[BaseException]
]:
    """Split a point's built configuration into shape and per-point values.

    Builds the point once.  Returns ``(shape, values, None)`` when the
    configuration's shape is one the kernels model, ``(None, None,
    None)`` when it builds fine but its shape is not modeled (scalar
    fallback with :data:`UNSUPPORTED_CONFIG`), and ``(None, None,
    error)`` when ``build()`` itself raises — the error is returned, not
    swallowed, so the caller can report :data:`BUILD_FAILED` with the
    authentic cause.
    """
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
    ``fallback_reasons[i]`` names why (:data:`UNSUPPORTED_CONFIG`,
    :data:`BUILD_FAILED`, :data:`SRAM_INFEASIBLE`, or
    :data:`SCREEN_FAILED`), and for build failures ``errors[i]`` holds
    the original exception ``build()`` raised.
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
        """Evaluate ``points``; vectorize what the kernels support.

        With ``workloads``/``batches`` supplied, each summary carries the
        full per-(regime, workload) outcome rows the scalar
        ``evaluate_point`` would produce (including the latency-bound
        batch search when ``"latency-bound"`` appears in ``batches``).

        Unsupported, infeasible, and screen-failing points come back
        with ``summaries[i] is None`` and a fallback reason — the caller
        (the sweep engine's ``auto``/``vector`` backends) re-evaluates
        them through the scalar path so failure records match the
        scalar backend exactly.
        """
        resolved = tuple(points)
        classified = [classify_point(point) for point in resolved]
        reasons: Dict[int, str] = {}
        errors: Dict[int, BaseException] = {}
        for index, (shape, _, error) in zip(itertools.count(), classified):
            if error is not None:
                reasons[index] = BUILD_FAILED
                errors[index] = error
            elif shape is None:
                reasons[index] = UNSUPPORTED_CONFIG
        summaries: List[Optional[SummaryResult]] = [None] * len(resolved)
        workload_list = tuple(workloads)
        batch_list = tuple(batches)
        for shape in MODELED_SHAPES:
            members = [
                (index, values)
                for index, (found, values, _) in zip(
                    itertools.count(), classified
                )
                if found is shape
            ]
            if members:
                self._estimate_shape(
                    shape,
                    resolved,
                    members,
                    workload_list,
                    batch_list,
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

    # -- one modeled shape ---------------------------------------------------

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
        every clean result is written back through the cache.
        """
        from repro.batch.kernels import estimate_grid
        from repro.batch.perf import (
            DEFAULT_LATENCY_SLO_MS,
            GraphSpec,
            simulate_workloads,
        )
        from repro.perf.optimizations import OptimizationConfig

        slo = (
            float(latency_slo_ms)
            if latency_slo_ms is not None
            else DEFAULT_LATENCY_SLO_MS
        )
        opt = OptimizationConfig.all_on()
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
        cache = get_estimate_cache()
        if not cache.enabled:
            cache = None
        keys: Dict[int, str] = {}
        misses: List[Tuple[int, GridAxes]] = []
        # The context, shape, workload specs, batch list, and SLO are
        # shared by every point of the shape; digest them once per call,
        # with each (large) graph spec standing in by its memoized digest.
        shared = (
            stable_hash(
                "batch-shared",
                self.ctx,
                shape,
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
        sub = substrate_for(self.ctx, shape)
        grid = estimate_grid(sub, axes)
        feasible = np.asarray(grid["feasible"], dtype=bool)
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
        for offset, index, ok, infeasible_free in zip(
            itertools.count(), indices, clean, feasible
        ):
            if not infeasible_free:
                reasons[index] = SRAM_INFEASIBLE
            elif not ok:
                reasons[index] = SCREEN_FAILED
            else:
                summary = SummaryResult(
                    point=resolved[index],
                    area_mm2=float(grid["area_mm2"][offset]),
                    tdp_w=float(grid["tdp_w"][offset]),
                    peak_tops=float(grid["peak_tops"][offset]),
                    outcomes=tuple(
                        SummaryOutcome(
                            workload=oc.workload,
                            batch=int(oc.batch[offset]),
                            regime=oc.regime(offset),
                            achieved_tops=float(oc.achieved_tops[offset]),
                            utilization=float(oc.utilization[offset]),
                            runtime_power_w=float(
                                oc.runtime_power_w[offset]
                            ),
                            latency_ms=float(oc.latency_ms[offset]),
                        )
                        for oc in outcomes
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
