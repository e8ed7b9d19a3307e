"""Budgeted surrogate-guided search with exact verification.

The contract, in one line: **surrogate predictions choose what to
evaluate; only the exact model's numbers are ever reported.**

The loop interleaves three ingredients:

* a proposal source — either a finite candidate *pool* (e.g. the Table I
  grid) ranked by acquisition value, or an evolutionary generator over
  :class:`~repro.dse.space.SpaceAxes` (mutation + crossover around the
  current elite, plus random immigrants) for spaces too large to
  enumerate;
* an acquisition function over the committee's per-member predictions —
  expected improvement for a single objective; for multi-objective runs,
  expected improvement on a ParEGO-style weighted-Chebyshev
  scalarization whose weights are re-drawn (seeded) every round so
  successive rounds chase different regions of the *exact* front;
* the exact evaluator — by default the fault-tolerant sweep engine
  (vector backend, journaled, resumable, abortable), optionally a
  :class:`ShardedEvaluator` that partitions each candidate batch into a
  shard manifest for the fleet.

Every exact evaluation is journaled (rows stamped ``source: "exact"``),
so an interrupted search resumes from its journal and every search
feeds the next training round.  The returned frontier and ranking are
recomputed from exact rows only.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cache.keys import short_hash
from repro.dse.engine import SweepReport, run_sweep
from repro.dse.journal import check_stamps, load_journal
from repro.dse.optimizer import Constraints, Objective, _score_fn
from repro.dse.pareto import pareto_front
from repro.dse.seeding import derive_seed, resolve_seed
from repro.dse.space import DesignPoint, SpaceAxes
from repro.dse.surrogate.features import (
    feature_digest,
    featurize_points,
    training_rows,
)
from repro.dse.surrogate.model import (
    _MIN_TRAINING_ROWS,
    SurrogateModel,
    fit_surrogate,
)
from repro.errors import ConfigurationError, OptimizationError

#: Default multi-objective axes of the verified frontier (peak metrics).
DEFAULT_PARETO_OBJECTIVES = (
    Objective.PEAK_TOPS,
    Objective.PEAK_TOPS_PER_WATT,
    Objective.PEAK_TOPS_PER_TCO,
)

#: Floor for predicted denominators (area, power) in acquisition math.
_EPS = 1e-9

#: Candidate-pool size per round in axes (generative) mode.
_AXES_CANDIDATES = 384


# -- evaluators -----------------------------------------------------------------


class EngineEvaluator:
    """Exact evaluation through :func:`repro.dse.engine.run_sweep`.

    One journal accumulates every round's evaluations: the first call
    honors the caller's ``resume`` flag (a fresh search truncates, a
    resumed one appends), subsequent calls always append.
    """

    def __init__(
        self,
        *,
        ctx=None,
        workloads: Sequence = (),
        batches: Sequence = (),
        backend: str = "auto",
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        chunk_size: Optional[int] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        journal_meta: Optional[dict] = None,
        should_abort: Optional[Callable[[], bool]] = None,
        latency_slo_ms: Optional[float] = None,
    ):
        self.ctx = ctx
        self.workloads = tuple(workloads)
        self.batches = tuple(batches)
        self.backend = backend
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.chunk_size = chunk_size
        self.journal_path = (
            os.fspath(journal_path) if journal_path is not None else None
        )
        self.journal_meta = journal_meta
        self.should_abort = should_abort
        self.latency_slo_ms = latency_slo_ms
        self._resume = resume

    def __call__(self, points: Sequence[DesignPoint]) -> SweepReport:
        kwargs = {}
        if self.latency_slo_ms is not None:
            kwargs["latency_slo_ms"] = self.latency_slo_ms
        report = run_sweep(
            list(points),
            self.workloads,
            self.batches,
            self.ctx,
            backend=self.backend,
            jobs=self.jobs,
            timeout_s=self.timeout_s,
            chunk_size=self.chunk_size,
            strict=False,
            journal_path=self.journal_path,
            resume=self._resume if self.journal_path else False,
            journal_meta=self.journal_meta,
            should_abort=self.should_abort,
            **kwargs,
        )
        if self.journal_path:
            self._resume = True  # later rounds append, never truncate
        return report


class ShardedEvaluator:
    """Exact evaluation that partitions each batch across shard workers.

    Every candidate batch becomes one content-addressed
    :class:`~repro.dse.shard.ShardManifest` written under
    ``journal_dir`` (``round-<k>-<digest>/manifest.json``), its shards
    are executed — in-process by default, or by any fleet worker that
    picks the manifest up — and the shard journals are merged with the
    verified merge before a single row reaches the search.  Workloads
    are named (manifest recipes are JSON), mirroring the PR 8 fleet
    protocol.
    """

    def __init__(
        self,
        journal_dir: "str | os.PathLike",
        shards: int = 2,
        *,
        ctx=None,
        workload_names: Sequence[str] = (),
        batches: Sequence = (),
        backend: str = "auto",
        jobs: int = 1,
        should_abort: Optional[Callable[[], bool]] = None,
        shard_runner: Optional[Callable] = None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shards}"
            )
        self.journal_dir = os.fspath(journal_dir)
        self.shards = shards
        self.ctx = ctx
        self.workload_names = tuple(str(n) for n in workload_names)
        self.batches = tuple(batches)
        self.backend = backend
        self.jobs = jobs
        self.should_abort = should_abort
        self.shard_runner = shard_runner
        self.rounds = 0
        self.manifests: list[str] = []

    def __call__(self, points: Sequence[DesignPoint]) -> SweepReport:
        from repro.dse.shard import (
            build_manifest,
            merge_journals,
            run_shard,
        )

        points = list(points)
        manifest = build_manifest(
            points,
            min(self.shards, len(points)),
            self.workload_names,
            self.batches,
        )
        round_dir = os.path.join(
            self.journal_dir,
            f"round-{self.rounds:04d}-{manifest.sweep_digest}",
        )
        self.rounds += 1
        manifest_path = manifest.write(
            os.path.join(round_dir, "manifest.json")
        )
        self.manifests.append(manifest_path)
        runner = self.shard_runner
        for index in range(manifest.shard_count):
            if self.should_abort is not None and self.should_abort():
                break
            if runner is not None:
                runner(manifest, index, round_dir)
            else:
                run_shard(
                    manifest,
                    index,
                    round_dir,
                    ctx=self.ctx,
                    backend=self.backend,
                    jobs=self.jobs,
                    should_abort=self.should_abort,
                )
        outcome = merge_journals(manifest, round_dir)
        return SweepReport(
            records=outcome.report.records,
            cancelled=not outcome.complete,
        )


# -- search configuration and result --------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """The verified outcome of one budgeted search.

    Every row in ``ranking``/``frontier`` came from the exact model
    (``source: "exact"`` in the journal); the surrogate only chose the
    evaluation order.  ``exact_evaluations`` counts the evaluations
    *this run* paid for — journal-rehydrated rows are free.
    """

    objective: Optional[Objective]
    pareto_objectives: tuple[Objective, ...]
    best: Optional[object]
    ranking: tuple = ()
    frontier: tuple = ()
    proposals: tuple[DesignPoint, ...] = ()
    exact_evaluations: int = 0
    total_rows: int = 0
    infeasible: tuple[DesignPoint, ...] = ()
    failures: tuple = ()
    cancelled: bool = False
    model: Optional[SurrogateModel] = None
    fallback_totals: dict = field(default_factory=dict)

    def summary(self) -> str:
        what = (
            self.objective.value
            if self.objective is not None
            else "+".join(o.value for o in self.pareto_objectives)
        )
        text = (
            f"surrogate search [{what}]: {self.exact_evaluations} exact "
            f"evaluations ({self.total_rows} rows total), frontier of "
            f"{len(self.frontier)}"
        )
        if self.best is not None:
            text += f", best {self.best.point.label()}"
        if self.cancelled:
            text += " [cancelled]"
        return text


def search_digest(
    *,
    candidates: Optional[Sequence[DesignPoint]] = None,
    axes: Optional[SpaceAxes] = None,
    workload_names: Sequence[str] = (),
    batches: Sequence = (),
) -> str:
    """Content digest of a search recipe (space + workloads + batches).

    Pool and axes recipes digest differently by construction, and the
    hash is version-salted via :func:`repro.cache.keys.short_hash`, so
    a journal from another recipe or package version is refused on
    resume instead of silently merged.
    """
    if axes is not None:
        space: object = ("axes", axes.descriptor())
    else:
        space = (
            "pool",
            [[p.x, p.n, p.tx, p.ty] for p in candidates or ()],
        )
    return short_hash(
        "surrogate-search", space, list(workload_names), list(batches)
    )


# -- acquisition math -----------------------------------------------------------


def _member_objective(
    objective: Objective, members: "dict[str, np.ndarray]"
) -> "np.ndarray":
    """Derive one objective's (members, N) scores from base predictions.

    Achieved-efficiency objectives use the predicted mean runtime power,
    falling back to the predicted TDP when the training set was
    peak-only — a deliberate acquisition-only approximation: it biases
    *which* points get evaluated, never a reported number.
    """
    peak = members["peak_tops"]
    area = np.maximum(members["area_mm2"], _EPS)
    tdp = np.maximum(members["tdp_w"], _EPS)
    achieved = members["achieved_tops"]
    runtime = members["runtime_power_w"]
    power = np.maximum(np.where(np.isfinite(runtime), runtime, tdp), _EPS)
    if objective is Objective.PEAK_TOPS:
        return peak
    if objective is Objective.PEAK_TOPS_PER_WATT:
        return peak / tdp
    if objective is Objective.PEAK_TOPS_PER_TCO:
        return peak / (area * area * tdp)
    if objective is Objective.ACHIEVED_TOPS:
        return achieved
    if objective is Objective.ACHIEVED_TOPS_PER_WATT:
        return achieved / power
    return achieved / (area * area * power)


def _normal_cdf(z: "np.ndarray") -> "np.ndarray":
    return np.asarray(
        [0.5 * (1.0 + math.erf(float(v) / math.sqrt(2.0))) for v in z]
    )


def _normal_pdf(z: "np.ndarray") -> "np.ndarray":
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _expected_improvement(
    scores: "np.ndarray", best: float
) -> "np.ndarray":
    """EI of each candidate from its committee score distribution.

    ``scores`` is (members, N); NaN member rows (untrained targets)
    contribute nothing.  Candidates whose every member is NaN get
    ``-inf`` so they are proposed last, never silently preferred.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mu = np.nanmean(scores, axis=0)
        sigma = np.nanstd(scores, axis=0)
    out = np.full(mu.shape, -np.inf)
    known = np.isfinite(mu)
    if not known.any():
        return out
    mu_k = mu[known]
    sigma_k = np.maximum(sigma[known], 1e-12 + 1e-9 * np.abs(mu_k))
    if not math.isfinite(best):
        # No feasible incumbent yet: exploit the committee mean outright.
        best = float(np.min(mu_k))
    z = (mu_k - best) / sigma_k
    out[known] = sigma_k * (z * _normal_cdf(z) + _normal_pdf(z))
    return out


def _chebyshev_gain(
    member_scores: "list[np.ndarray]",
    exact_scores: "np.ndarray",
    lam: "np.ndarray",
) -> "np.ndarray":
    """Expected improvement on a weighted-Chebyshev scalarization.

    ParEGO-style multi-objective acquisition: ``lam`` is one weight
    vector on the objective simplex (a fresh seeded draw per round, so
    successive rounds chase different regions of the front), and each
    candidate's committee scores are collapsed to the augmented
    Chebyshev scalar ``min_k lam_k z_k + 0.05 sum_k lam_k z_k`` over
    objectives normalized to [0, 1] in log space.  EI is then computed
    against the best *exact* row under the same scalarization — plain
    non-domination acquisition is useless here because with three
    objectives nearly every candidate is non-dominated, which flattens
    the signal into random mutation.

    ``member_scores[k]`` is objective ``k``'s (members, N) predictions;
    ``exact_scores`` is (rows, K) of the exactly evaluated rows.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        logs = [np.log(np.maximum(s, _EPS)) for s in member_scores]
        exact_logs = np.log(np.maximum(exact_scores, _EPS))
    # Normalization bounds per objective: exact rows plus the committee
    # means, so a candidate predicted beyond the front still lands > 1.
    lo, hi = [], []
    for k, member_log in enumerate(logs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean_k = np.nanmean(member_log, axis=0)
        pool = np.concatenate([exact_logs[:, k], mean_k[np.isfinite(mean_k)]])
        if pool.size == 0:
            pool = np.asarray([0.0, 1.0])
        lo.append(float(pool.min()))
        hi.append(float(max(pool.max(), pool.min() + 1e-9)))
    scalar = None
    for k, member_log in enumerate(logs):
        z = lam[k] * (member_log - lo[k]) / (hi[k] - lo[k])
        part = z if scalar is None else np.minimum(scalar[0], z)
        total = z if scalar is None else scalar[1] + z
        scalar = (part, total)
    cheb = scalar[0] + 0.05 * scalar[1]  # (members, N)
    if exact_logs.shape[0]:
        ex = None
        for k in range(exact_logs.shape[1]):
            z = lam[k] * (exact_logs[:, k] - lo[k]) / (hi[k] - lo[k])
            ex = (
                (z, z)
                if ex is None
                else (np.minimum(ex[0], z), ex[1] + z)
            )
        best = float(np.max(ex[0] + 0.05 * ex[1]))
    else:
        best = -np.inf
    return _expected_improvement(cheb, best)


# -- proposal generation --------------------------------------------------------


def _sample_axes(
    axes: SpaceAxes, rng: "np.random.Generator", count: int
) -> list[DesignPoint]:
    """Uniform seeded samples over the axes (with replacement, deduped)."""
    nx, nn, ng = axes.axis_sizes()
    picks = {
        (int(ix), int(in_), int(ig))
        for ix, in_, ig in zip(
            rng.integers(0, nx, size=count),
            rng.integers(0, nn, size=count),
            rng.integers(0, ng, size=count),
        )
    }
    return [axes.point_at(*triple) for triple in sorted(picks)]


def _mutate(
    axes: SpaceAxes,
    triple: tuple[int, int, int],
    rng: "np.random.Generator",
) -> tuple[int, int, int]:
    """Neighborhood move: nudge or rejump each axis independently."""
    sizes = axes.axis_sizes()
    out = list(triple)
    for axis in range(3):
        roll = rng.random()
        if roll < 0.45:
            continue  # axis untouched
        if roll < 0.85:
            step = int(rng.integers(1, 3)) * (
                1 if rng.random() < 0.5 else -1
            )
            out[axis] = min(max(out[axis] + step, 0), sizes[axis] - 1)
        else:
            out[axis] = int(rng.integers(0, sizes[axis]))
    return (out[0], out[1], out[2])


def _crossover(
    a: tuple[int, int, int],
    b: tuple[int, int, int],
    rng: "np.random.Generator",
) -> tuple[int, int, int]:
    picks = rng.random(3)
    return tuple(
        a[axis] if picks[axis] < 0.5 else b[axis] for axis in range(3)
    )


def _generate_candidates(
    axes: SpaceAxes,
    elites: Sequence[DesignPoint],
    evaluated: "set[DesignPoint]",
    rng: "np.random.Generator",
    count: int,
) -> list[DesignPoint]:
    """One round's candidate pool: offspring of the elite + immigrants."""
    triples = [axes.indices_of(p) for p in elites if axes.contains(p)]
    seen: set[DesignPoint] = set()
    out: list[DesignPoint] = []

    def _admit(point: DesignPoint) -> None:
        if point not in seen and point not in evaluated:
            seen.add(point)
            out.append(point)

    attempts = 0
    while len(out) < count and attempts < count * 8:
        attempts += 1
        if triples and rng.random() < 0.75:
            if len(triples) >= 2 and rng.random() < 0.4:
                i, j = rng.choice(len(triples), size=2, replace=False)
                child = _crossover(triples[int(i)], triples[int(j)], rng)
            else:
                child = triples[int(rng.integers(0, len(triples)))]
            child = _mutate(axes, child, rng)
            _admit(axes.point_at(*child))
        else:
            for point in _sample_axes(axes, rng, 4):
                _admit(point)
    return out[:count]


# -- the search loop ------------------------------------------------------------


def _is_neighbor(a: DesignPoint, b: DesignPoint) -> bool:
    """Whether two points differ in exactly one design axis."""
    return sum(
        1
        for u, v in zip((a.x, a.n, a.tx, a.ty), (b.x, b.n, b.tx, b.ty))
        if u != v
    ) == 1


def _usable(result, objective: Optional[Objective], batch: int) -> bool:
    """Whether an exact row can be scored on the requested objective."""
    if objective is None or not objective.needs_workloads:
        return True
    regime = f"bs={int(batch)}"
    return any(o.regime == regime for o in result.outcomes)


def surrogate_search(
    objective: Optional[Objective] = None,
    *,
    candidates: Optional[Sequence[DesignPoint]] = None,
    axes: Optional[SpaceAxes] = None,
    eval_budget: int,
    seed: Optional[int] = None,
    ctx=None,
    workloads: Sequence = (),
    batch: int = 1,
    constraints: Constraints = Constraints(),
    pareto_objectives: Sequence[Objective] = DEFAULT_PARETO_OBJECTIVES,
    round_size: Optional[int] = None,
    init_count: Optional[int] = None,
    members: int = 5,
    rounds: int = 48,
    model: Optional[SurrogateModel] = None,
    warm_journals: Sequence["str | os.PathLike"] = (),
    journal_path: Optional["str | os.PathLike"] = None,
    resume: bool = False,
    evaluator: Optional[Callable] = None,
    backend: str = "auto",
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> SearchResult:
    """Run one budgeted surrogate-guided search, exactly verified.

    Args:
        objective: Single objective to maximize, or ``None`` for a pure
            multi-objective (Pareto) search over ``pareto_objectives``.
        candidates: Finite candidate pool (pool mode) — exactly one of
            ``candidates``/``axes`` is required.
        axes: Open space to navigate with mutation/crossover (axes
            mode).
        eval_budget: Maximum exact evaluations the *search* may spend.
            Rows rehydrated from the search's own journal (``resume``)
            count as already spent — an interrupted run finishes the
            remaining budget, a completed one spends nothing more —
            while ``warm_journals`` rows are free training data.
        seed: Run seed (``NEUROMETER_SEED``/0 when omitted); the whole
            search is a deterministic function of (seed, journals).
        ctx / workloads / batch: Modeling context and workload recipe,
            as in :func:`repro.dse.engine.run_sweep`.
        constraints: Exact-row feasibility bounds for ranking/frontier.
        round_size / init_count: Proposals per refit round and initial
            space-filling draws (budget-derived defaults).
        members / rounds: Committee size and boosting rounds per fit.
        model: A pre-trained :class:`SurrogateModel` to steer the first
            rounds (digest-checked against the current context).
        warm_journals: Extra journals whose exact rows seed training.
        journal_path / resume: The search's own journal; every exact
            evaluation is appended (rows stamped ``source: "exact"``)
            and a resumed search re-pays nothing for finished points
            (they are charged against the budget exactly once).
        evaluator: Custom exact evaluator ``points -> SweepReport``
            (e.g. :class:`ShardedEvaluator`); defaults to the engine.
        backend / jobs / timeout_s / should_abort: Engine passthrough;
            ``should_abort`` also stops the proposal loop between
            rounds.

    Raises:
        ConfigurationError: inconsistent arguments, a stale model
            digest, or a resume journal from a different recipe.
        OptimizationError: the budget produced no feasible exact row.
    """
    if (candidates is None) == (axes is None):
        raise ConfigurationError(
            "surrogate_search needs exactly one of candidates= (pool "
            "mode) or axes= (generative mode)"
        )
    if eval_budget < 1:
        raise ConfigurationError(
            f"eval_budget must be >= 1, got {eval_budget}"
        )
    if objective is not None and objective.needs_workloads and not workloads:
        raise ConfigurationError(
            f"objective {objective.value!r} needs workloads to simulate"
        )
    pareto_objectives = tuple(pareto_objectives)
    if objective is not None and objective not in pareto_objectives:
        pareto_objectives = pareto_objectives + (objective,)
    seed = resolve_seed(seed)
    rng = np.random.default_rng(derive_seed(seed, "surrogate-search"))
    digest = feature_digest(ctx)
    if model is not None:
        model.check_digest(digest)

    pool = list(dict.fromkeys(candidates)) if candidates is not None \
        else None
    workload_names = [name for name, _ in workloads]
    batches = [batch] if workloads else []
    recipe = search_digest(
        candidates=pool,
        axes=axes,
        workload_names=workload_names,
        batches=batches,
    )

    # -- prior exact rows: resume journal + warm journals -------------------
    evaluated: dict[DesignPoint, object] = {}
    unusable: list[DesignPoint] = []
    failed: set[DesignPoint] = set()
    training_entries = []
    if journal_path is not None and resume and os.path.exists(journal_path):
        check_stamps(journal_path, {"search_digest": recipe})
        for entry in load_journal(journal_path):
            training_entries.append(entry)
            row = entry.summary_result()
            if row is None:
                failed.add(entry.point)
            else:
                evaluated[entry.point] = row
    # Rows in the search's own journal were charged to this budget by
    # the interrupted run: a resumed search finishes the *remaining*
    # budget, and resuming a completed journal spends nothing — it does
    # not quietly extend the search.  Warm journals stay free.
    prior_spent = len(evaluated) + len(failed)
    for path in warm_journals:
        training_entries.extend(load_journal(path))

    if evaluator is None:
        evaluator = EngineEvaluator(
            ctx=ctx,
            workloads=workloads,
            batches=batches,
            backend=backend,
            jobs=jobs,
            timeout_s=timeout_s,
            journal_path=journal_path,
            resume=resume,
            journal_meta={
                "search_digest": recipe,
                "search": {
                    "kind": "surrogate",
                    "seed": seed,
                    "objective": (
                        objective.value if objective is not None else None
                    ),
                    "pareto": [o.value for o in pareto_objectives],
                },
            },
            should_abort=should_abort,
        )

    if round_size is None:
        round_size = max(2, eval_budget // 8)
    if init_count is None:
        init_count = min(
            eval_budget, max(_MIN_TRAINING_ROWS, eval_budget // 4)
        )

    score = (
        _score_fn(objective, batch) if objective is not None else None
    )
    pareto_fns = [_score_fn(o, batch) for o in pareto_objectives]

    def _feasible_rows() -> list:
        rows = []
        for point in sorted(evaluated):
            row = evaluated[point]
            if not _usable(row, objective, batch):
                continue
            if all(_usable(row, o, batch) for o in pareto_objectives) \
                    and constraints.satisfied_by(row):
                rows.append(row)
        return rows

    def _training_matrices():
        points, feats, targets = training_rows(
            training_entries, ctx=ctx, batch=batch
        )
        return points, feats, targets

    spent = 0
    cancelled = False
    proposals: list[DesignPoint] = []
    failures: list = []
    fallback_totals: dict[str, int] = {}
    fitted = model

    def _evaluate(batch_points: list[DesignPoint]) -> bool:
        """Run one exact batch; returns False when the search must stop."""
        nonlocal spent, cancelled
        if not batch_points:
            return False
        requested = set(batch_points)
        report = evaluator(batch_points)
        for reason, count in sorted(report.fallback_totals().items()):
            fallback_totals[reason] = (
                fallback_totals.get(reason, 0) + count
            )
        for record in report.records:
            # Budget accounting by novelty, not by the record's
            # from_journal flag: a sharded evaluator rehydrates every
            # row from the merged shard journals, yet each newly
            # requested point still cost one exact evaluation.
            if (
                record.point in requested
                and record.point not in evaluated
                and record.point not in failed
            ):
                spent += 1
                proposals.append(record.point)
            entry_row = record.result
            if entry_row is None:
                failed.add(record.point)
                if record.failure is not None:
                    failures.append(record.failure)
            else:
                evaluated[record.point] = entry_row
            if record.result is not None:
                training_entries.append(record.journal_entry())
        if report.cancelled:
            cancelled = True
            return False
        return True

    def _remaining_budget() -> int:
        return max(0, eval_budget - prior_spent - spent)

    def _unseen(points: Sequence[DesignPoint]) -> list[DesignPoint]:
        return [
            p for p in points
            if p not in evaluated and p not in failed
        ]

    # -- initial space-filling draws ----------------------------------------
    known_rows = len(
        [e for e in training_entries if e.metrics is not None]
    )
    if known_rows < _MIN_TRAINING_ROWS and fitted is None:
        want = min(init_count, _remaining_budget())
        if pool is not None:
            unseen = _unseen(pool)
            take = min(want, len(unseen))
            if take > 0:
                picks = rng.choice(len(unseen), size=take, replace=False)
                batch_points = [unseen[int(i)] for i in sorted(picks)]
            else:
                batch_points = []
        else:
            batch_points = _unseen(
                _sample_axes(axes, rng, max(want * 2, want + 4))
            )[:want]
        if not _evaluate(batch_points):
            return _finish(
                objective, pareto_objectives, pareto_fns, score,
                _feasible_rows(), evaluated, proposals, spent,
                failures, cancelled, fitted, fallback_totals,
            )

    # -- acquisition rounds -------------------------------------------------
    round_index = -1
    while _remaining_budget() > 0:
        round_index += 1
        if should_abort is not None and should_abort():
            cancelled = True
            break
        _, feats, targets = _training_matrices()
        if feats.shape[0] >= _MIN_TRAINING_ROWS:
            fitted = fit_surrogate(
                feats,
                targets,
                digest=digest,
                seed=derive_seed(seed, "fit", spent),
                members=members,
                rounds=rounds,
                # The ridge trend extrapolates toward open-space corners
                # (generative mode needs that); in a finite pool the
                # draws already span the hull and pure stumps
                # interpolate the local structure better.
                trend=pool is None,
            )
        if fitted is None:
            break  # not enough data and nothing left to draw
        if pool is not None:
            round_candidates = _unseen(pool)
            if not round_candidates:
                break
        else:
            feasible_now = _feasible_rows()
            if objective is not None and score is not None:
                elites = [
                    r.point for r in sorted(
                        feasible_now, key=score, reverse=True
                    )[:8]
                ]
            else:
                elites = [
                    r.point
                    for r in pareto_front(feasible_now, pareto_fns)[:12]
                ]
            if not elites:
                elites = sorted(evaluated)[:8]
            round_candidates = _generate_candidates(
                axes, elites, set(evaluated) | failed, rng,
                _AXES_CANDIDATES,
            )
            if not round_candidates:
                break
        member_preds = fitted.predict_members(
            featurize_points(round_candidates, ctx)
        )
        if objective is not None:
            scores = _member_objective(objective, member_preds)
            feasible_now = _feasible_rows()
            best_now = (
                max(score(r) for r in feasible_now)
                if feasible_now
                else -np.inf
            )
            # Every objective is a positive ratio spanning orders of
            # magnitude; EI on the log scale keeps the improvement
            # signal comparable across the whole space.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                scores = np.log(np.maximum(scores, _EPS))
            if math.isfinite(best_now):
                best_now = math.log(max(best_now, _EPS))
            acquisition = _expected_improvement(scores, best_now)
        else:
            per_objective = [
                _member_objective(o, member_preds)
                for o in pareto_objectives
            ]
            exact_rows = _feasible_rows()
            exact_scores = np.asarray(
                [[fn(r) for fn in pareto_fns] for r in exact_rows]
            ) if exact_rows else np.empty((0, len(pareto_fns)))
            lam = rng.dirichlet(np.ones(len(pareto_fns)))
            acquisition = _chebyshev_gain(
                per_objective, exact_scores, lam
            )
        take = min(round_size, _remaining_budget(), len(round_candidates))
        order = np.argsort(-acquisition, kind="stable")
        batch_points = [round_candidates[int(i)] for i in order[:take]]
        if objective is not None and feasible_now and take >= 2:
            # Two reserved proposals ride along with the EI picks:
            #
            # * **Exploit** — the committee's best predicted candidate
            #   outright.  EI's spread term keeps chasing uncertain
            #   regions, so without this slot a candidate the model
            #   already ranks *first* (e.g. a warm-journal row it knows
            #   exactly) can go unevaluated for the whole budget.
            # * **Polish** — the best predicted one-axis neighbor of the
            #   incumbent: the achieved surface has utilization cliffs,
            #   so the off-by-one neighbor of the current best is
            #   routinely the true optimum even when the global ranking
            #   narrowly misses it.  Ranked by predicted score, not EI,
            #   which collapses toward zero right next to the incumbent.
            #
            # Tiny rounds (2 slots) alternate the two by round parity so
            # EI always keeps at least one slot.
            incumbent = max(feasible_now, key=score).point
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mean_pred = np.nanmean(scores, axis=0)
            finite = np.isfinite(mean_pred)
            reserved: list[DesignPoint] = []
            if finite.any():
                exploit = int(
                    np.argmax(np.where(finite, mean_pred, -np.inf))
                )
                reserved.append(round_candidates[exploit])
            neighbors = [
                (float(mean_pred[i]), i)
                for i, p in enumerate(round_candidates)
                if _is_neighbor(incumbent, p)
                and math.isfinite(float(mean_pred[i]))
            ]
            if neighbors:
                _, pick = max(neighbors)
                if round_candidates[pick] not in reserved:
                    reserved.append(round_candidates[pick])
            if take == 2 and len(reserved) == 2:
                reserved = [reserved[round_index % 2]]
            reserved = reserved[:max(0, take - 1)]
            if reserved:
                keep = [
                    p for p in batch_points if p not in reserved
                ][: take - len(reserved)]
                batch_points = keep + reserved
        if not _evaluate(batch_points):
            break

    return _finish(
        objective, pareto_objectives, pareto_fns, score,
        _feasible_rows(), evaluated, proposals, spent,
        failures, cancelled, fitted, fallback_totals,
    )


def _finish(
    objective,
    pareto_objectives,
    pareto_fns,
    score,
    feasible,
    evaluated,
    proposals,
    spent,
    failures,
    cancelled,
    fitted,
    fallback_totals,
) -> SearchResult:
    """Assemble the verified result from exact rows only."""
    if not feasible:
        if cancelled:
            return SearchResult(
                objective=objective,
                pareto_objectives=tuple(pareto_objectives),
                best=None,
                proposals=tuple(proposals),
                exact_evaluations=spent,
                total_rows=len(evaluated),
                failures=tuple(failures),
                cancelled=True,
                model=fitted,
                fallback_totals=dict(fallback_totals),
            )
        raise OptimizationError(
            f"the search budget ({spent} exact evaluations) produced "
            "no feasible candidate; raise the budget or relax the "
            "constraints"
        )
    frontier = tuple(pareto_front(feasible, pareto_fns))
    if objective is not None and score is not None:
        ranking = tuple(sorted(feasible, key=score, reverse=True))
        best = ranking[0]
    else:
        on_front = set(map(id, frontier))
        ranking = frontier + tuple(
            r for r in feasible if id(r) not in on_front
        )
        best = None
    feasible_points = {r.point for r in feasible}
    infeasible = tuple(
        point for point in sorted(evaluated)
        if point not in feasible_points
    )
    return SearchResult(
        objective=objective,
        pareto_objectives=tuple(pareto_objectives),
        best=best,
        ranking=ranking,
        frontier=frontier,
        proposals=tuple(proposals),
        exact_evaluations=spent,
        total_rows=len(evaluated),
        infeasible=infeasible,
        failures=tuple(failures),
        cancelled=cancelled,
        model=fitted,
        fallback_totals=dict(fallback_totals),
    )
