"""Property-based invariants of the budgeted surrogate search.

The load-bearing contract: whatever the surrogate predicts, everything
*reported* is exact — the frontier is the Pareto front of exactly
evaluated rows, each row's metrics reproduce under direct evaluation,
and the budget is never exceeded.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse.optimizer import _score_fn
from repro.dse.pareto import pareto_front
from repro.dse.space import full_grid
from repro.dse.surrogate.search import (
    DEFAULT_PARETO_OBJECTIVES,
    surrogate_search,
)

GRID = full_grid()
FNS = [_score_fn(o, 1) for o in DEFAULT_PARETO_OBJECTIVES]


@st.composite
def sub_grids(draw):
    """A random 16-32 point sub-grid of the Table I space."""
    size = draw(st.integers(min_value=16, max_value=32))
    indices = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(GRID) - 1),
            min_size=size,
            max_size=size,
        )
    )
    return [GRID[i] for i in sorted(indices)]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pool=sub_grids(), seed=st.integers(min_value=0, max_value=3))
def test_verified_frontier_is_the_exact_pareto_front(pool, seed):
    budget = max(8, len(pool) // 2)
    result = surrogate_search(
        None, candidates=pool, eval_budget=budget, seed=seed
    )
    assert result.exact_evaluations <= budget

    evaluated = list(result.ranking)
    assert len(evaluated) <= budget
    assert {r.point for r in evaluated} <= set(pool)

    # The reported frontier is exactly the Pareto front of the rows the
    # exact model produced — no surrogate prediction can add or drop a
    # frontier point.
    expected = {r.point for r in pareto_front(evaluated, FNS)}
    assert {r.point for r in result.frontier} == expected

    # And every frontier point is undominated among *all* exact rows.
    for row in result.frontier:
        for other in evaluated:
            dominates = all(
                fn(other) >= fn(row) for fn in FNS
            ) and any(fn(other) > fn(row) for fn in FNS)
            assert not dominates


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pool=sub_grids())
def test_frontier_metrics_reproduce_under_direct_evaluation(pool):
    from repro.batch.estimator import BatchEstimator

    result = surrogate_search(
        None, candidates=pool, eval_budget=10, seed=0
    )
    points = [r.point for r in result.frontier]
    batch = BatchEstimator().estimate_points(points)
    for row, fresh in zip(points, batch.summaries):
        reported = next(
            r for r in result.frontier if r.point == row
        )
        assert fresh is not None
        assert reported.area_mm2 == pytest.approx(fresh.area_mm2)
        assert reported.tdp_w == pytest.approx(fresh.tdp_w)
        assert reported.peak_tops == pytest.approx(fresh.peak_tops)
