"""Design-point optimization with alternative targets and constraints.

Fig. 1 of the paper: "NeuroMeter requires the input of system-level
performance (i.e., peak TOPS) as the optimization target (or a minimal
value of it as a design constraint).  TOPS/Watt and TOPS/TCO are also
allowed to feed in as alternative optimization targets or design
constraints."  This module implements that selection layer on top of the
sweep machinery: filter the candidate points by constraints, rank by the
chosen objective, return the winner (and the ranking).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.arch.component import ModelContext
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult
from repro.errors import ConfigurationError, OptimizationError
from repro.perf.graph import Graph


class Objective(enum.Enum):
    """Optimization targets NeuroMeter accepts (peak metrics)."""

    PEAK_TOPS = "tops"
    PEAK_TOPS_PER_WATT = "tops-per-watt"
    PEAK_TOPS_PER_TCO = "tops-per-tco"
    ACHIEVED_TOPS = "achieved-tops"
    ACHIEVED_TOPS_PER_WATT = "achieved-tops-per-watt"
    ACHIEVED_TOPS_PER_TCO = "achieved-tops-per-tco"

    @property
    def needs_workloads(self) -> bool:
        return self.value.startswith("achieved")


@dataclass(frozen=True)
class Constraints:
    """Design constraints (all optional; ``None`` disables a bound).

    Attributes:
        max_area_mm2 / max_tdp_w: The physical budget (Table I uses
            500 mm^2 / 300 W).
        min_peak_tops: Performance floor ("a minimal value of it as a
            design constraint").
        min_peak_tops_per_watt / min_peak_tops_per_tco: Efficiency floors.
    """

    max_area_mm2: Optional[float] = None
    max_tdp_w: Optional[float] = None
    min_peak_tops: Optional[float] = None
    min_peak_tops_per_watt: Optional[float] = None
    min_peak_tops_per_tco: Optional[float] = None

    def satisfied_by(self, result: DesignPointResult) -> bool:
        """Whether one evaluated point meets every bound."""
        checks = (
            (self.max_area_mm2, result.area_mm2, False),
            (self.max_tdp_w, result.tdp_w, False),
            (self.min_peak_tops, result.peak_tops, True),
            (
                self.min_peak_tops_per_watt,
                result.peak_tops_per_watt,
                True,
            ),
            (self.min_peak_tops_per_tco, result.peak_tops_per_tco, True),
        )
        for bound, value, is_floor in checks:
            if bound is None:
                continue
            if is_floor and value < bound:
                return False
            if not is_floor and value > bound:
                return False
        return True


def _score_fn(
    objective: Objective, batch: int
) -> Callable[[DesignPointResult], float]:
    if objective is Objective.PEAK_TOPS:
        return lambda r: r.peak_tops
    if objective is Objective.PEAK_TOPS_PER_WATT:
        return lambda r: r.peak_tops_per_watt
    if objective is Objective.PEAK_TOPS_PER_TCO:
        return lambda r: r.peak_tops_per_tco
    if objective is Objective.ACHIEVED_TOPS:
        return lambda r: r.mean_achieved_tops(batch)
    if objective is Objective.ACHIEVED_TOPS_PER_WATT:
        return lambda r: r.mean_energy_efficiency(batch)
    return lambda r: r.mean_cost_efficiency(batch)


#: Candidate-selection strategies ``optimize_design`` accepts.
STRATEGIES = ("exhaustive", "surrogate")


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a design optimization.

    Attributes:
        best: The winning evaluated point (``None`` only when a
            cancelled run finished no feasible candidate).
        ranking: Every feasible point, best first.
        infeasible: Points that failed the constraints (or whose degraded
            evaluation lacks the runtime metrics the objective needs).
        failures: Structured evaluation failures — only populated when
            the engine runs in ``strict=False`` (keep-going) mode.
        strategy: How candidates were chosen: ``"exhaustive"`` (every
            point evaluated) or ``"surrogate"`` (budgeted search; the
            ranking covers only the points the search exactly verified).
        exact_evaluations: Exact-model evaluations actually *paid for*
            by this call — journal-rehydrated rows are free.  ``None``
            when the engine ran without that accounting (legacy paths).
        cancelled: The run was stopped early by ``should_abort``; the
            ranking covers only the points finished before the abort.
    """

    best: Optional[DesignPointResult]
    ranking: tuple[DesignPointResult, ...]
    infeasible: tuple[DesignPoint, ...]
    failures: tuple = ()
    strategy: str = "exhaustive"
    exact_evaluations: Optional[int] = None
    cancelled: bool = False


def _rank_records(
    records,
    failures,
    points_count: int,
    objective: Objective,
    constraints: Constraints,
    batch: int,
    *,
    strategy: str,
    exact_evaluations: Optional[int],
    cancelled: bool,
) -> OptimizationOutcome:
    """Filter by constraints, rank by the objective, pick the winner."""
    regime = f"bs={batch}"
    feasible: list[DesignPointResult] = []
    infeasible: list[DesignPoint] = []
    for record in records:
        result = record.result
        if result is None:
            continue  # reported through ``failures``
        if objective.needs_workloads and not any(
            o.regime == regime for o in result.outcomes
        ):
            # Degraded (peak-only) rows cannot be ranked on achieved-*
            # objectives.
            infeasible.append(record.point)
            continue
        if constraints.satisfied_by(result):
            feasible.append(result)
        else:
            infeasible.append(record.point)
    if not feasible:
        if cancelled:
            return OptimizationOutcome(
                best=None,
                ranking=(),
                infeasible=tuple(infeasible),
                failures=tuple(failures),
                strategy=strategy,
                exact_evaluations=exact_evaluations,
                cancelled=True,
            )
        raise OptimizationError(
            f"none of the {points_count} candidates satisfy the "
            "constraints"
        )
    score = _score_fn(objective, batch)
    ranking = sorted(feasible, key=score, reverse=True)
    return OptimizationOutcome(
        best=ranking[0],
        ranking=tuple(ranking),
        infeasible=tuple(infeasible),
        failures=tuple(failures),
        strategy=strategy,
        exact_evaluations=exact_evaluations,
        cancelled=cancelled,
    )


def optimize_design(
    points: Sequence[DesignPoint],
    objective: Objective = Objective.PEAK_TOPS,
    constraints: Constraints = Constraints(),
    workloads: Sequence[tuple[str, Graph]] = (),
    batch: int = 1,
    ctx: Optional[ModelContext] = None,
    *,
    backend: str = "scalar",
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    chunk_size: Optional[int] = None,
    strict: bool = True,
    journal_path: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    strategy: str = "exhaustive",
    eval_budget: Optional[int] = None,
    seed: Optional[int] = None,
    should_abort=None,
) -> OptimizationOutcome:
    """Pick the best design point for an objective under constraints.

    With ``strategy="exhaustive"`` every candidate is evaluated on the
    fault-tolerant sweep engine (:func:`repro.dse.engine.run_sweep`) —
    process parallelism, per-point timeouts, checkpoint/resume — and the
    journal is stamped with the grid's sweep digest, so a resumed call
    over the same grid and recipe ranks from the journal without
    re-evaluating a point, and one over another grid is refused.

    With ``strategy="surrogate"`` a learned cost model proposes which
    candidates deserve exact evaluation
    (:func:`repro.dse.surrogate.search.surrogate_search`); only
    exact-verified rows are ranked, and ``eval_budget`` caps the exact
    evaluations (default: a quarter of the candidates).

    Args:
        points: Candidate design tuples.
        objective: The metric to maximize.
        constraints: Bounds every candidate must satisfy.
        workloads: (name, graph) pairs — required for achieved-* targets.
        batch: Batch size for achieved-* targets.
        ctx: Modeling context (Table I's by default).
        backend: Estimation backend (``"scalar"``, ``"vector"``, or
            ``"auto"``); see :func:`repro.dse.engine.run_sweep`.
        jobs: Worker processes for candidate evaluation.
        timeout_s: Per-candidate wall-clock budget.
        chunk_size: Candidates dispatched per worker chunk.
        strict: Raise on the first evaluation failure (legacy behavior).
            With ``strict=False`` failed candidates are recorded in
            ``failures`` and the optimization continues.
        journal_path / resume: Checkpoint journal; see
            :func:`repro.dse.engine.run_sweep`.
        strategy: ``"exhaustive"`` or ``"surrogate"``.
        eval_budget: Exact-evaluation cap for the surrogate strategy.
        seed: Search seed for the surrogate strategy
            (``NEUROMETER_SEED``/0 when omitted).
        should_abort: Cooperative cancellation hook, polled between
            evaluations; a cancelled run answers a partial outcome with
            ``cancelled=True`` instead of raising.

    Raises:
        ConfigurationError: an achieved-* objective without workloads,
            an unknown strategy, or a resume journal stamped with
            another sweep digest or recipe.
        OptimizationError: no candidate satisfies the constraints.
    """
    from repro.dse.engine import run_sweep
    from repro.dse.shard import sweep_digest

    if not points:
        raise ConfigurationError("no candidate design points given")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if objective.needs_workloads and not workloads:
        raise ConfigurationError(
            f"objective {objective.value!r} needs workloads to simulate"
        )

    batches = [batch] if objective.needs_workloads else []

    if strategy == "surrogate":
        from repro.dse.surrogate.search import surrogate_search

        budget = (
            eval_budget
            if eval_budget is not None
            else max(8, len(points) // 4)
        )
        search = surrogate_search(
            objective,
            candidates=points,
            eval_budget=budget,
            seed=seed,
            ctx=ctx,
            workloads=workloads,
            batch=batch,
            constraints=constraints,
            journal_path=journal_path,
            resume=resume,
            backend=backend,
            jobs=jobs,
            timeout_s=timeout_s,
            should_abort=should_abort,
        )
        return OptimizationOutcome(
            best=search.best,
            ranking=search.ranking,
            infeasible=search.infeasible,
            failures=search.failures,
            strategy="surrogate",
            exact_evaluations=search.exact_evaluations,
            cancelled=search.cancelled,
        )

    digest = sweep_digest(points, [name for name, _ in workloads], batches)
    report = run_sweep(
        points,
        workloads,
        batches,
        ctx,
        backend=backend,
        jobs=jobs,
        timeout_s=timeout_s,
        chunk_size=chunk_size,
        strict=strict,
        journal_path=journal_path,
        resume=resume,
        journal_meta={"sweep_digest": digest},
        should_abort=should_abort,
    )
    return _rank_records(
        report.records,
        report.failures,
        len(points),
        objective,
        constraints,
        batch,
        strategy="exhaustive",
        exact_evaluations=sum(
            1 for r in report.records if not r.from_journal
        ),
        cancelled=report.cancelled,
    )
