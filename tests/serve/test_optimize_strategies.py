"""The /optimize endpoint's strategy field over real sockets."""

import pytest

from repro.serve.client import RemoteError

#: Small candidate pool so a surrogate search stays fast in-test.
POINTS = [
    [x, n, 2, 2]
    for x in (4, 8, 16, 32, 64, 128)
    for n in (1, 2, 4)
]


def test_optimize_reports_strategy_and_spend(harness_factory):
    harness = harness_factory(jobs=1)
    harness.client().wait_healthy()
    body = harness.client().optimize(
        objective="tops", points=POINTS
    )
    assert body["strategy"] == "exhaustive"
    assert body["exact_evaluations"] == len(POINTS)
    assert body["candidates"] == len(POINTS)


def test_surrogate_strategy_over_the_wire(harness_factory):
    harness = harness_factory(jobs=1)
    harness.client().wait_healthy()
    budget = 10
    body = harness.client().optimize(
        objective="tops",
        points=POINTS,
        strategy="surrogate",
        eval_budget=budget,
        seed=0,
    )
    assert body["strategy"] == "surrogate"
    assert 0 < body["exact_evaluations"] <= budget
    assert body["candidates"] == len(POINTS)
    # tops is monotone in the design size: the budgeted search must
    # find the largest pool design without sweeping the pool.
    assert body["best"]["point"] == [128, 4, 2, 2]


def test_surrogate_seed_makes_the_response_reproducible(harness_factory):
    harness = harness_factory(jobs=1)
    harness.client().wait_healthy()
    kwargs = dict(
        objective="tops-per-tco",
        points=POINTS,
        strategy="surrogate",
        eval_budget=9,
        seed=7,
    )
    first = harness.client().optimize(**kwargs)
    second = harness.client().optimize(**kwargs)
    assert first["best"] == second["best"]
    assert first["ranking"] == second["ranking"]


def test_unknown_strategy_maps_to_400(harness_factory):
    harness = harness_factory(jobs=1)
    harness.client().wait_healthy()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().optimize(
            objective="tops", points=POINTS, strategy="psychic"
        )
    assert excinfo.value.status == 400
    assert excinfo.value.error_type == "ConfigurationError"


def test_unfundable_budget_is_refused_at_admission(harness_factory):
    # eval_cost_floor_s * budget far beyond the request deadline: the
    # daemon must refuse up front instead of accepting guaranteed-504
    # work.
    harness = harness_factory(jobs=1, eval_cost_floor_s=1.0)
    harness.client().wait_healthy()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().optimize(
            objective="tops",
            points=POINTS,
            strategy="surrogate",
            eval_budget=1000,
            deadline_s=2.0,
        )
    assert excinfo.value.status == 400
    assert "deadline" in str(excinfo.value)


def test_fundable_budget_passes_the_same_admission_gate(harness_factory):
    harness = harness_factory(jobs=1, eval_cost_floor_s=0.001)
    harness.client().wait_healthy()
    body = harness.client().optimize(
        objective="tops",
        points=POINTS,
        strategy="surrogate",
        eval_budget=9,
        seed=0,
        deadline_s=60.0,
    )
    assert body["strategy"] == "surrogate"
