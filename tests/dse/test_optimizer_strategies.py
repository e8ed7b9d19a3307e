"""optimize_design strategies: journal warm-starts and surrogate mode."""

import pytest

from repro.dse.optimizer import Objective, optimize_design
from repro.dse.space import full_grid
from repro.errors import ConfigurationError

#: A 42-point slice of the grid keeps each optimization fast.
POOL = [
    p
    for p in full_grid()
    if (p.tx, p.ty) in ((1, 1), (2, 2), (4, 4)) and p.n in (1, 4)
]


def test_outcome_reports_the_strategy_and_spend():
    outcome = optimize_design(POOL, objective=Objective.PEAK_TOPS)
    assert outcome.strategy == "exhaustive"
    assert outcome.exact_evaluations == len(POOL)
    assert outcome.cancelled is False
    assert outcome.best is not None
    assert outcome.best.point == outcome.ranking[0].point


def test_unknown_strategy_is_refused():
    with pytest.raises(ConfigurationError, match="strategy"):
        optimize_design(
            POOL, objective=Objective.PEAK_TOPS, strategy="psychic"
        )


def test_warm_start_ranks_from_a_covering_journal(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    cold = optimize_design(
        POOL, objective=Objective.PEAK_TOPS, journal_path=journal
    )
    assert cold.exact_evaluations == len(POOL)

    warm = optimize_design(
        POOL,
        objective=Objective.PEAK_TOPS,
        journal_path=journal,
        resume=True,
    )
    assert warm.exact_evaluations == 0
    assert warm.best.point == cold.best.point
    assert [r.point for r in warm.ranking] == [
        r.point for r in cold.ranking
    ]


def test_warm_start_reranks_for_a_different_objective(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    optimize_design(
        POOL, objective=Objective.PEAK_TOPS, journal_path=journal
    )
    # The journal is keyed by the sweep recipe, not the objective, so a
    # different objective re-ranks the same exact rows for free.
    warm = optimize_design(
        POOL,
        objective=Objective.PEAK_TOPS_PER_TCO,
        journal_path=journal,
        resume=True,
    )
    assert warm.exact_evaluations == 0
    fresh = optimize_design(POOL, objective=Objective.PEAK_TOPS_PER_TCO)
    assert warm.best.point == fresh.best.point


def test_warm_start_refuses_a_journal_from_another_grid(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    optimize_design(
        POOL, objective=Objective.PEAK_TOPS, journal_path=journal
    )
    other = [p for p in full_grid() if p.n == 2][:20]
    with pytest.raises(ConfigurationError, match="journal"):
        optimize_design(
            other,
            objective=Objective.PEAK_TOPS,
            journal_path=journal,
            resume=True,
        )


def test_partial_journal_finishes_the_sweep(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    optimize_design(
        POOL[: len(POOL) // 2],
        objective=Objective.PEAK_TOPS,
        journal_path=tmp_path / "half.jsonl",
    )
    # A journal that covers only part of the grid must not short-circuit
    # the ranking: the engine resumes and evaluates the remainder.
    first = optimize_design(
        POOL, objective=Objective.PEAK_TOPS, journal_path=journal
    )
    assert first.exact_evaluations == len(POOL)


def test_surrogate_strategy_matches_exhaustive_on_the_pool():
    exhaustive = optimize_design(
        POOL, objective=Objective.PEAK_TOPS_PER_TCO
    )
    outcome = optimize_design(
        POOL,
        objective=Objective.PEAK_TOPS_PER_TCO,
        strategy="surrogate",
        eval_budget=len(POOL) // 2,
        seed=0,
    )
    assert outcome.strategy == "surrogate"
    assert outcome.exact_evaluations <= len(POOL) // 2
    assert outcome.best.point == exhaustive.best.point


def test_surrogate_strategy_defaults_to_a_quarter_budget():
    outcome = optimize_design(
        POOL,
        objective=Objective.PEAK_TOPS,
        strategy="surrogate",
        seed=0,
    )
    assert outcome.exact_evaluations <= max(8, len(POOL) // 4)


def test_surrogate_abort_reports_cancelled_not_partial_truth():
    calls = {"count": 0}

    def should_abort():
        calls["count"] += 1
        return calls["count"] > 1

    outcome = optimize_design(
        POOL,
        objective=Objective.PEAK_TOPS,
        strategy="surrogate",
        eval_budget=20,
        seed=0,
        should_abort=should_abort,
    )
    assert outcome.cancelled
