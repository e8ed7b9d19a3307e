"""Budgeted surrogate search: exact-only results, resumable, seeded."""

import numpy as np
import pytest

from repro.dse.journal import load_journal
from repro.dse.optimizer import Constraints, Objective, _score_fn
from repro.dse.space import DesignPoint, SpaceAxes, full_grid
from repro.dse.surrogate.search import (
    ShardedEvaluator,
    search_digest,
    surrogate_search,
)
from repro.errors import ConfigurationError

#: A small but non-trivial pool: every TU length at two grid shapes.
POOL = [
    p
    for p in full_grid()
    if (p.tx, p.ty) in ((1, 1), (2, 2), (4, 4)) and p.n in (1, 4)
]

OBJECTIVE = Objective.PEAK_TOPS_PER_TCO


def _search(**kwargs):
    kwargs.setdefault("candidates", POOL)
    kwargs.setdefault("eval_budget", 14)
    kwargs.setdefault("seed", 0)
    return surrogate_search(OBJECTIVE, **kwargs)


def test_argument_validation():
    with pytest.raises(ConfigurationError, match="exactly one"):
        surrogate_search(OBJECTIVE, eval_budget=4)
    with pytest.raises(ConfigurationError, match="exactly one"):
        surrogate_search(
            OBJECTIVE,
            candidates=POOL,
            axes=SpaceAxes.table1(),
            eval_budget=4,
        )
    with pytest.raises(ConfigurationError, match="eval_budget"):
        _search(eval_budget=0)
    with pytest.raises(ConfigurationError, match="workloads"):
        surrogate_search(
            Objective.ACHIEVED_TOPS, candidates=POOL, eval_budget=4
        )


def test_budget_is_respected_and_rows_are_exact():
    result = _search()
    assert result.exact_evaluations <= 14
    assert result.total_rows <= 14
    assert result.best is not None
    # Reported metrics come from real chip builds, not predictions.
    rebuilt = result.best.point.build()
    assert result.best.area_mm2 > 0
    assert rebuilt is not None


def test_same_seed_is_bit_deterministic():
    first = _search()
    second = _search()
    assert first.proposals == second.proposals
    assert first.best.point == second.best.point
    assert [r.point for r in first.ranking] == [
        r.point for r in second.ranking
    ]


def test_different_seeds_propose_differently():
    first = _search(seed=0)
    second = _search(seed=1)
    assert first.proposals != second.proposals


def test_search_finds_the_pool_optimum_with_partial_budget():
    from repro.dse.optimizer import optimize_design

    exhaustive = optimize_design(POOL, objective=OBJECTIVE)
    result = _search(eval_budget=len(POOL) // 2)
    assert result.best.point == exhaustive.best.point


def test_journal_rows_are_stamped_exact(tmp_path):
    journal = tmp_path / "search.jsonl"
    _search(journal_path=journal)
    entries = load_journal(journal)
    assert entries
    assert all(e.source == "exact" for e in entries)


def test_resume_pays_nothing_for_finished_points(tmp_path):
    journal = tmp_path / "search.jsonl"
    first = _search(eval_budget=len(POOL), journal_path=journal)
    assert first.total_rows == len(POOL)
    resumed = _search(
        eval_budget=len(POOL), journal_path=journal, resume=True
    )
    assert resumed.exact_evaluations == 0
    assert resumed.total_rows == len(POOL)
    assert resumed.best.point == first.best.point


def test_resume_finishes_only_the_remaining_budget(tmp_path):
    journal = tmp_path / "search.jsonl"
    first = _search(eval_budget=6, journal_path=journal)
    assert first.exact_evaluations <= 6
    resumed = _search(
        eval_budget=10, journal_path=journal, resume=True
    )
    # The 6 journaled rows are charged against the budget exactly once:
    # the resumed run may spend only the remainder.
    assert resumed.exact_evaluations <= 10 - first.exact_evaluations
    assert resumed.total_rows <= 10


def test_resuming_a_completed_open_space_search_spends_nothing(tmp_path):
    # Axes mode can always propose fresh points, so only the budget
    # accounting stops a completed search from quietly extending itself.
    journal = tmp_path / "search.jsonl"
    axes = SpaceAxes.table1()
    first = _search(
        candidates=None, axes=axes, eval_budget=8, journal_path=journal
    )
    resumed = _search(
        candidates=None,
        axes=axes,
        eval_budget=8,
        journal_path=journal,
        resume=True,
    )
    assert resumed.exact_evaluations == 0
    assert resumed.total_rows == first.total_rows
    assert resumed.best.point == first.best.point


def test_resume_refuses_a_journal_from_another_recipe(tmp_path):
    journal = tmp_path / "search.jsonl"
    _search(journal_path=journal)
    other_pool = [p for p in full_grid() if p.n == 2]
    with pytest.raises(ConfigurationError, match="recipe"):
        surrogate_search(
            OBJECTIVE,
            candidates=other_pool,
            eval_budget=8,
            seed=0,
            journal_path=journal,
            resume=True,
        )


def test_warm_journal_rows_train_but_are_not_results(tmp_path):
    from repro.dse.engine import run_sweep

    warm = tmp_path / "warm.jsonl"
    warm_points = POOL[::2]
    run_sweep(warm_points, journal_path=warm)
    result = _search(eval_budget=10, warm_journals=[warm])
    evaluated = {r.point for r in result.ranking}
    # Only points the search itself paid for may be reported.
    assert len(evaluated) <= 10
    assert result.exact_evaluations <= 10


def test_constraints_split_feasible_from_infeasible():
    result = _search(
        eval_budget=len(POOL),
        constraints=Constraints(max_area_mm2=300.0),
    )
    assert result.infeasible
    for row in result.ranking:
        assert row.area_mm2 <= 300.0
    for point in result.infeasible:
        assert point not in {r.point for r in result.ranking}


def test_abort_mid_search_reports_cancelled():
    calls = {"count": 0}

    def should_abort():
        calls["count"] += 1
        return calls["count"] > 1

    result = _search(should_abort=should_abort)
    assert result.cancelled
    assert result.exact_evaluations < 14


def test_frontier_is_exact_pareto_subset():
    from repro.dse.pareto import pareto_front
    from repro.dse.surrogate.search import DEFAULT_PARETO_OBJECTIVES

    result = surrogate_search(
        None, candidates=POOL, eval_budget=16, seed=0
    )
    fns = [_score_fn(o, 1) for o in DEFAULT_PARETO_OBJECTIVES]
    expected = {
        r.point for r in pareto_front(list(result.ranking), fns)
    }
    assert {r.point for r in result.frontier} == expected


def test_axes_mode_navigates_without_enumeration():
    axes = SpaceAxes.table1()
    result = _search(candidates=None, axes=axes, eval_budget=16)
    assert result.best is not None
    assert result.exact_evaluations <= 16
    for row in result.ranking:
        assert axes.contains(row.point)


def test_search_digest_separates_recipes():
    pool_digest = search_digest(candidates=POOL)
    axes_digest = search_digest(axes=SpaceAxes.table1())
    assert pool_digest != axes_digest
    assert pool_digest == search_digest(candidates=POOL)
    assert search_digest(
        candidates=POOL, workload_names=["resnet"], batches=[1]
    ) != pool_digest


def test_sharded_evaluator_counts_budget_by_novelty(tmp_path):
    evaluator = ShardedEvaluator(tmp_path, shards=2)
    result = _search(eval_budget=10, evaluator=evaluator)
    # Merged shard journals rehydrate every row as from_journal; the
    # budget must still count each *newly requested* point exactly once.
    assert result.exact_evaluations <= 10
    assert result.total_rows <= 10
    assert evaluator.rounds >= 1
    assert evaluator.manifests
    for manifest in evaluator.manifests:
        assert tmp_path in type(tmp_path)(manifest).parents


def test_stale_pretrained_model_is_refused():
    from repro.dse.surrogate.features import TARGET_NAMES
    from repro.dse.surrogate.model import fit_surrogate

    rng = np.random.default_rng(0)
    features = rng.uniform(1.0, 4.0, size=(16, 3))
    targets = np.full((16, len(TARGET_NAMES)), np.nan)
    targets[:, 0] = features[:, 0]
    stale = fit_surrogate(features, targets, digest="stale", seed=0)
    with pytest.raises(ConfigurationError, match="stale"):
        _search(model=stale)
