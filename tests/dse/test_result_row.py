"""One result row: scalar, pooled, vector and resumed rows agree.

A design point's row is one type, :class:`DesignPointResult`, with one
JSON form, :func:`summarize_result`.  Every path that produces a row —
a scalar evaluation in process, a forked worker, the vector backend and
a journal resume — must give the same row for the same point, equal
field for field apart from the estimate tree, which only a fresh scalar
evaluation carries.  The JSON form must survive its inverse exactly,
types included.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

import repro.batch.estimator as estimator_mod
import repro.dse.engine as engine_mod
from repro.dse.engine import run_sweep
from repro.dse.journal import (
    load_journal,
    result_from_metrics,
    summarize_result,
)
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, WorkloadOutcome, evaluate_point
from repro.errors import MappingError
from repro.workloads import inception_v3, nasnet_a_large, resnet50

#: The Fig. 10 batch regimes.
BATCHES = (1, "latency-bound", 256)
#: Forced to fail its workloads, so every path salvages a peak-only row.
DEGRADED = DesignPoint(32, 1, 2, 2)
POINTS = [
    DesignPoint(16, 4, 4, 4),
    DesignPoint(64, 2, 2, 4),
    DEGRADED,
    DesignPoint(128, 1, 1, 1),
]


@pytest.fixture(scope="module")
def workloads():
    return [
        ("resnet", resnet50()),
        ("inception", inception_v3()),
        ("nasnet", nasnet_a_large()),
    ]


@pytest.fixture
def forced_degradation(monkeypatch):
    """Fail ``DEGRADED``'s workload simulation on every path.

    The scalar path fails it the way ``tests/dse/test_engine.py`` does,
    through a patched ``evaluate_point``; the vector path hands the
    point back to the scalar path first, where the same patch fails it.
    """
    evaluate = engine_mod.evaluate_point
    classify = estimator_mod.classify_point

    def flaky(point, workloads=(), batches=(), *args):
        if point == DEGRADED and workloads:
            raise MappingError("forced workload failure")
        return evaluate(point, workloads, batches, *args)

    def hand_back(point):
        if point == DEGRADED:
            return None, None, MappingError("forced hand-back")
        return classify(point)

    monkeypatch.setattr(engine_mod, "evaluate_point", flaky)
    monkeypatch.setattr(estimator_mod, "classify_point", hand_back)


def _paths(tmp_path, workloads, batches):
    """Every path's report of ``POINTS``, by path name."""
    journal = tmp_path / f"rows-{len(batches)}.jsonl"
    args = (POINTS, workloads, batches)
    reports = {
        "inline": run_sweep(*args, journal_path=journal),
        "pooled": run_sweep(*args, jobs=2),
        "vector": run_sweep(*args, backend="auto"),
        "resumed": run_sweep(*args, journal_path=journal, resume=True),
    }
    assert all(r.from_journal for r in reports["resumed"].records)
    return reports, journal


@pytest.mark.parametrize(
    "batches", [BATCHES, ()], ids=["fig10-batches", "peak-only"]
)
def test_every_path_gives_the_same_row(
    tmp_path, workloads, forced_degradation, batches
):
    use = workloads if batches else ()
    reports, _ = _paths(tmp_path, use, batches)
    want = reports["inline"]
    statuses = ["ok", "ok", "degraded" if batches else "ok", "ok"]
    for name, report in reports.items():
        assert [r.status for r in report.records] == statuses, name
        for record, reference in zip(report.records, want.records):
            result = record.result
            assert type(result) is DesignPointResult, name
            assert all(type(o) is WorkloadOutcome for o in result.outcomes)
            assert replace(result, estimate=None) == replace(
                reference.result, estimate=None
            ), (name, record.point)
            assert record.metrics == summarize_result(result), name
            # Only a fresh scalar evaluation carries its estimate tree;
            # the vector run's hand-back is one.
            fresh_scalar = name in ("inline", "pooled") or (
                name == "vector" and record.fallback is not None
            )
            assert (result.estimate is not None) is fresh_scalar, name
    full = len(BATCHES) * len(workloads) if batches else 0
    assert [len(r.result.outcomes) for r in want.records] == [
        full, full, 0, full
    ]


def _same(want, got, where="row"):
    """Equal, and of the same type at every level."""
    assert type(want) is type(got), where
    if isinstance(want, dict):
        assert sorted(want) == sorted(got), where
        for key in want:
            _same(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(want) == len(got), where
        for index, (w, g) in enumerate(zip(want, got)):
            _same(w, g, f"{where}[{index}]")
    else:
        assert want == got, where


def test_every_written_row_round_trips_exactly(
    tmp_path, workloads, forced_degradation
):
    reports, journal = _paths(tmp_path, workloads, BATCHES)
    entries = load_journal(journal)
    assert len(entries) == len(POINTS)
    for entry in entries:
        result = result_from_metrics(entry.point, entry.metrics)
        _same(entry.metrics, summarize_result(result), str(entry.point))
        assert entry.summary_result() == result
    for name, report in reports.items():
        for record in report.records:
            metrics = record.metrics
            again = summarize_result(
                result_from_metrics(record.point, metrics)
            )
            _same(metrics, again, f"{name} {record.point}")
            assert list(again) == list(metrics)


def test_a_row_without_latency_rehydrates_with_none():
    metrics = {
        "area_mm2": 100.0,
        "tdp_w": 50.0,
        "peak_tops": 10.0,
        "peak_tops_per_watt": 0.2,
        "peak_tops_per_tco": 1e-06,
        "outcomes": [{
            "workload": "resnet",
            "batch": 1,
            "regime": "bs=1",
            "achieved_tops": 1.0,
            "utilization": 0.1,
            "runtime_power_w": 40.0,
        }],
    }
    result = result_from_metrics(DesignPoint(16, 1, 2, 2), metrics)
    assert result.outcomes[0].latency_ms is None
    assert result.estimate is None
    written = summarize_result(result)
    assert written["outcomes"][0].pop("latency_ms") is None
    assert written["outcomes"] == metrics["outcomes"]


def test_a_scalar_row_pickles_small(workloads):
    """A pooled point ships numbers and its estimate tree, not the
    simulator's per-layer records (56.7 KB when it carried them)."""
    result = evaluate_point(DesignPoint(64, 2, 2, 4), workloads, [1])
    assert len(pickle.dumps(result)) < 8 * 1024
