"""A daemon ``/sweep`` resume honours the journal's recipe stamp."""

from __future__ import annotations

import pytest

import repro.dse.engine as engine_mod
from repro.dse.sweep import DesignPointResult
from repro.serve.client import RemoteError

POINTS = [[16, 1, 2, 2], [32, 1, 2, 2]]


def _result(point) -> DesignPointResult:
    return DesignPointResult(
        point=point,
        area_mm2=100.0 + point.x,
        tdp_w=50.0,
        peak_tops=10.0,
        estimate=None,
        outcomes=(),
    )


@pytest.fixture
def client(harness_factory, monkeypatch, tmp_path):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _result(point)

    monkeypatch.setattr(engine_mod, "evaluate_point", fake)
    harness = harness_factory(jobs=1, journal_dir=str(tmp_path / "j"))
    return harness.client()


def test_resume_with_another_node_answers_400(client):
    client.sweep(POINTS, journal="s.jsonl")
    with pytest.raises(RemoteError) as excinfo:
        client.sweep(POINTS, journal="s.jsonl", resume=True, node=16)
    assert excinfo.value.status == 400
    message = excinfo.value.payload["message"]
    assert "recipe" in message and "s.jsonl" in message


def test_resume_with_the_same_recipe_reads_the_journal(client):
    client.sweep(POINTS, journal="s.jsonl", node=28)
    # No node at all is the same Table I context as an explicit 28 nm.
    payload = client.sweep(POINTS, journal="s.jsonl", resume=True)
    assert all(r["from_journal"] for r in payload["records"])
