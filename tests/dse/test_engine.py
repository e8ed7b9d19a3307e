"""Fault injection for the robust sweep engine.

Each test monkeypatches ``repro.dse.engine.evaluate_point`` with a cheap
fake that raises, hangs, or returns poisoned numbers on chosen design
points, then asserts the engine's contract: isolation, timeout kill,
degraded retry, journal resume, and guardrail rejection.  Worker
processes are forked, so patched fakes are inherited by the pool.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

import repro.dse.engine as engine_mod
from repro.dse.engine import (
    PointFailure,
    classify_stage,
    run_sweep,
)
from repro.dse.journal import (
    Journal,
    JournalEntry,
    load_journal,
    summarize_result,
)
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, WorkloadOutcome, sweep
from repro.errors import (
    ConfigurationError,
    MappingError,
    NumericalError,
    PointTimeoutError,
)
from repro.integrity import UTILIZATION_SLACK, validate_result

GOOD = DesignPoint(16, 1, 2, 2)
GOOD2 = DesignPoint(32, 1, 2, 2)
BAD = DesignPoint(4, 1, 1, 1)

#: Stand-in workload list; the fakes never touch the graphs.
WORKLOADS = [("fake", None)]


def _fake_result(
    point: DesignPoint,
    with_outcomes: bool = False,
    area_mm2: float = 300.0,
    utilization: float = 0.5,
) -> DesignPointResult:
    outcomes = ()
    if with_outcomes:
        outcomes = (
            WorkloadOutcome(
                workload="fake",
                batch=1,
                regime="bs=1",
                achieved_tops=10.0,
                utilization=utilization,
                runtime_power_w=80.0,
                latency_ms=1.0,
            ),
        )
    return DesignPointResult(
        point=point,
        area_mm2=area_mm2,
        tdp_w=100.0,
        peak_tops=50.0,
        estimate=None,
        outcomes=outcomes,
    )


def _patch(monkeypatch, fake):
    monkeypatch.setattr(engine_mod, "evaluate_point", fake)


# -- isolation ----------------------------------------------------------------


def test_failure_is_isolated_not_fatal(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise MappingError("cannot map conv1")
        return _fake_result(point, with_outcomes=bool(workloads))

    _patch(monkeypatch, fake)
    report = run_sweep(
        [GOOD, BAD, GOOD2],
        WORKLOADS,
        [1],
        strict=False,
        retry_degraded=False,
    )
    assert [r.point for r in report.records] == [GOOD, BAD, GOOD2]
    assert [r.status for r in report.records] == ["ok", "failed", "ok"]
    assert len(report.results) == 2
    (failure,) = report.failures
    assert failure.point == BAD
    assert failure.error_type == "MappingError"
    assert failure.stage == "simulate"
    assert "conv1" in failure.message


def test_strict_reraises_like_legacy_sweep(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise MappingError("boom")
        return _fake_result(point)

    _patch(monkeypatch, fake)
    with pytest.raises(MappingError):
        run_sweep([GOOD, BAD], strict=True)
    with pytest.raises(MappingError):
        sweep([GOOD, BAD])


def test_strict_reraises_across_process_pool(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise MappingError("boom in worker")
        return _fake_result(point)

    _patch(monkeypatch, fake)
    with pytest.raises(MappingError, match="boom in worker"):
        run_sweep([BAD, GOOD], jobs=2, strict=True, retry_degraded=False)


# -- degraded retry -----------------------------------------------------------


def test_retry_salvages_peak_only_row(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD and workloads:
            raise MappingError("cannot map conv1")
        return _fake_result(point, with_outcomes=bool(workloads))

    _patch(monkeypatch, fake)
    report = run_sweep([GOOD, BAD], WORKLOADS, [1], strict=False)
    record = report.record_for(BAD)
    assert record.status == "degraded"
    assert record.attempt == 2
    assert record.result.outcomes == ()  # peak-only
    assert record.result.area_mm2 == 300.0
    assert record.failure.error_type == "MappingError"
    assert not report.failures  # the row was salvaged
    # The healthy point kept its full evaluation.
    assert report.record_for(GOOD).result.outcomes != ()


def test_double_failure_reports_original_error(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise MappingError("always broken")
        return _fake_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep([BAD], WORKLOADS, [1], strict=False)
    record = report.record_for(BAD)
    assert record.status == "failed"
    assert record.attempt == 2
    assert record.failure.attempt == 1  # the original failure is kept
    assert record.failure.error_type == "MappingError"


# -- timeouts -----------------------------------------------------------------


def test_hung_point_is_killed_and_recorded(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD and workloads:
            time.sleep(60)
        return _fake_result(point, with_outcomes=bool(workloads))

    _patch(monkeypatch, fake)
    start = time.monotonic()
    report = run_sweep(
        [GOOD, BAD],
        WORKLOADS,
        [1],
        jobs=2,
        timeout_s=1.0,
        strict=False,
    )
    assert time.monotonic() - start < 30
    record = report.record_for(BAD)
    # The degraded (workload-free) retry finishes instantly.
    assert record.status == "degraded"
    assert record.failure.stage == "timeout"
    assert record.failure.error_type == "PointTimeoutError"
    assert report.record_for(GOOD).status == "ok"


def test_timeout_without_retry_is_failed(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            time.sleep(60)
        return _fake_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(
        [BAD, GOOD],
        timeout_s=1.0,
        strict=False,
        retry_degraded=False,
    )
    record = report.record_for(BAD)
    assert record.status == "failed"
    assert record.failure.stage == "timeout"
    assert report.record_for(GOOD).status == "ok"


def test_strict_timeout_raises(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(60)

    _patch(monkeypatch, fake)
    with pytest.raises(PointTimeoutError):
        run_sweep([BAD], timeout_s=0.5, strict=True)


# -- guardrails ---------------------------------------------------------------


def test_nan_result_is_rejected_at_the_boundary(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD and workloads:
            return _fake_result(
                point, with_outcomes=True, area_mm2=float("nan")
            )
        return _fake_result(point, with_outcomes=bool(workloads))

    _patch(monkeypatch, fake)
    report = run_sweep(
        [GOOD, BAD], WORKLOADS, [1], strict=False
    )
    record = report.record_for(BAD)
    assert record.status == "degraded"  # peak-only retry was clean
    assert record.failure.error_type == "NumericalError"
    assert record.failure.stage == "validate"
    assert "area_mm2" in record.failure.message


def test_validate_result_field_paths():
    with pytest.raises(NumericalError, match="area_mm2"):
        validate_result(_fake_result(GOOD, area_mm2=float("nan")))
    with pytest.raises(NumericalError, match="area_mm2"):
        validate_result(_fake_result(GOOD, area_mm2=-3.0))
    with pytest.raises(
        NumericalError, match=r"outcomes\[0\]\.utilization"
    ):
        validate_result(
            _fake_result(GOOD, with_outcomes=True, utilization=1.7)
        )
    error = None
    try:
        validate_result(
            _fake_result(GOOD, with_outcomes=True, utilization=1.7)
        )
    except NumericalError as caught:
        error = caught
    assert error.field == "outcomes[0].utilization"
    assert error.value == 1.7
    # Clean results pass through unchanged.
    result = _fake_result(GOOD, with_outcomes=True)
    assert validate_result(result) is result


@pytest.mark.parametrize(
    "change, field, reason",
    [
        ({"achieved_tops": float("nan")}, "achieved_tops", "NaN"),
        ({"utilization": 1.5}, "utilization", "must be within [0, 1]"),
        ({"runtime_power_w": 0.0}, "runtime_power_w", "must be positive"),
        ({"batch": 0}, "batch", "must be >= 1"),
        ({"latency_ms": -1.0}, "latency_ms", "must be non-negative"),
        ({"latency_ms": float("inf")}, "latency_ms", "infinite"),
        ({"achieved_tops": True}, "achieved_tops", "not a number"),
        ({"runtime_power_w": "80"}, "runtime_power_w", "not a number"),
    ],
)
def test_validate_result_names_the_failing_outcome(change, field, reason):
    with pytest.raises(NumericalError) as caught:
        validate_result(_summary_with(**change))
    value = change[field]
    assert caught.value.field == f"outcomes[2].{field}"
    assert caught.value.value is value
    assert caught.value.reason == reason
    assert str(caught.value) == (
        f"invalid numerical result at outcomes[2].{field}: "
        f"{value!r}: {reason}"
    )


def _summary_with(**change) -> DesignPointResult:
    """Four clean outcomes, the third one changed."""
    clean = WorkloadOutcome(
        workload="fake",
        batch=1,
        regime="bs=1",
        achieved_tops=10.0,
        utilization=0.5,
        runtime_power_w=80.0,
        latency_ms=1.0,
    )
    return DesignPointResult(
        point=GOOD,
        area_mm2=300.0,
        tdp_w=100.0,
        peak_tops=50.0,
        outcomes=(clean, clean, replace(clean, **change), clean),
    )


@pytest.mark.parametrize(
    "change",
    [
        {"achieved_tops": 10, "runtime_power_w": 80, "latency_ms": 0},
        {"utilization": 1.0 + UTILIZATION_SLACK / 2},
        {"utilization": 1.0 + UTILIZATION_SLACK},
        {"utilization": 0.0, "achieved_tops": 0.0, "latency_ms": None},
    ],
)
def test_validate_result_accepts_ints_and_in_band_utilization(change):
    result = _summary_with(**change)
    assert validate_result(result) is result
    # Ints pass at the chip level too.
    result = replace(result, area_mm2=300, tdp_w=100, peak_tops=50)
    assert validate_result(result) is result


def test_validation_can_be_disabled(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _fake_result(point, area_mm2=float("nan"))

    _patch(monkeypatch, fake)
    report = run_sweep([GOOD], strict=False, validate=False)
    assert report.records[0].status == "ok"


# -- journal + resume ---------------------------------------------------------


def test_resume_skips_finished_points(monkeypatch, tmp_path):
    journal_path = tmp_path / "sweep.jsonl"
    calls: list[DesignPoint] = []

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        calls.append(point)
        if point == BAD and workloads:
            raise MappingError("broken")
        return _fake_result(point, with_outcomes=bool(workloads))

    _patch(monkeypatch, fake)
    # First run dies after two of three points (simulated by only
    # handing the engine the first two).
    run_sweep(
        [GOOD, BAD],
        WORKLOADS,
        [1],
        strict=False,
        journal_path=journal_path,
    )
    first_run_calls = list(calls)
    assert GOOD in first_run_calls and BAD in first_run_calls

    # Re-running the full sweep with --resume evaluates only GOOD2.
    calls.clear()
    report = run_sweep(
        [GOOD, BAD, GOOD2],
        WORKLOADS,
        [1],
        strict=False,
        journal_path=journal_path,
        resume=True,
    )
    assert calls == [GOOD2]
    assert [r.status for r in report.records] == ["ok", "degraded", "ok"]
    resumed = report.record_for(GOOD)
    assert resumed.from_journal
    assert isinstance(resumed.result, DesignPointResult)
    assert resumed.result.area_mm2 == 300.0
    assert resumed.result.mean_utilization(1) == pytest.approx(0.5)
    # The degraded point's original failure survives the round trip.
    assert report.record_for(BAD).failure.error_type == "MappingError"
    assert not report.record_for(GOOD2).from_journal


def test_resume_does_not_reevaluate_failed_points(monkeypatch, tmp_path):
    journal_path = tmp_path / "sweep.jsonl"

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        raise MappingError("always broken")

    _patch(monkeypatch, fake)
    run_sweep(
        [BAD],
        strict=False,
        retry_degraded=False,
        journal_path=journal_path,
    )

    def explode(point, workloads=(), batches=(), ctx=None, slo=10.0):
        raise AssertionError("finished point was re-evaluated")

    _patch(monkeypatch, explode)
    report = run_sweep(
        [BAD],
        strict=False,
        journal_path=journal_path,
        resume=True,
    )
    record = report.records[0]
    assert record.status == "failed"
    assert record.from_journal
    assert record.failure.error_type == "MappingError"


def test_journal_survives_truncated_tail(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with Journal(path) as journal:
        journal.append(
            JournalEntry(
                point=GOOD,
                status="ok",
                metrics=summarize_result(_fake_result(GOOD)),
            )
        )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "point", "point": [32, 1, ')  # killed mid-write
    with pytest.warns(RuntimeWarning, match="trailing journal line"):
        entries = load_journal(path)
    assert len(entries) == 1
    assert entries[0].point == GOOD
    assert entries[0].summary_result().peak_tops == 50.0


def test_journal_lines_are_json_objects(monkeypatch, tmp_path):
    journal_path = tmp_path / "sweep.jsonl"

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _fake_result(point)

    _patch(monkeypatch, fake)
    run_sweep([GOOD, GOOD2], strict=False, journal_path=journal_path)
    lines = journal_path.read_text().strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert payloads[0]["kind"] == "header"
    points = [p["point"] for p in payloads if p["kind"] == "point"]
    assert [16, 1, 2, 2] in points and [32, 1, 2, 2] in points


# -- parallel execution -------------------------------------------------------


def test_parallel_results_preserve_input_order(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(0.01 if point == GOOD else 0.0)
        return _fake_result(point)

    _patch(monkeypatch, fake)
    points = [GOOD, GOOD2, BAD]
    report = run_sweep(points, jobs=3, strict=False)
    assert [r.point for r in report.records] == points
    assert all(r.status == "ok" for r in report.records)


def test_summary_line(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise MappingError("broken")
        return _fake_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(
        [GOOD, BAD], strict=False, retry_degraded=False
    )
    assert report.summary() == "2 points: 1 ok, 0 degraded, 1 failed"


# -- option validation --------------------------------------------------------


def test_engine_rejects_bad_options():
    with pytest.raises(ConfigurationError):
        run_sweep([GOOD], jobs=0)
    with pytest.raises(ConfigurationError):
        run_sweep([GOOD], timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        run_sweep([GOOD], resume=True)


def test_classify_stage_falls_back_to_exception_type():
    assert classify_stage(MappingError("x")) == "simulate"
    assert classify_stage(NumericalError("f", 1.0)) == "validate"
    assert classify_stage(ValueError("x")) == "evaluate"
    tagged = ValueError("x")
    tagged.stage = "power"
    assert classify_stage(tagged) == "power"


def test_design_point_validation_names_offending_field():
    with pytest.raises(ConfigurationError, match="field x"):
        DesignPoint(0, 1, 1, 1)
    with pytest.raises(ConfigurationError, match="field tx"):
        DesignPoint(4, 1, -2, 1)
    with pytest.raises(ConfigurationError, match="field n"):
        DesignPoint(4, 1.5, 2, 1)


@pytest.mark.parametrize("field", ["x", "n", "tx", "ty"])
@pytest.mark.parametrize(
    "value, problem",
    [
        (True, "must be an integer, got True"),
        (2.0, "must be an integer, got 2.0"),
        (0, "must be positive, got 0"),
        (-3, "must be positive, got -3"),
    ],
)
def test_design_point_validation_messages(field, value, problem):
    fields = {"x": 64, "n": 2, "tx": 2, "ty": 4}
    fields[field] = value
    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    with pytest.raises(ConfigurationError) as caught:
        DesignPoint(**fields)
    assert str(caught.value) == (
        f"design point field {field} {problem} in DesignPoint({shown})"
    )


def test_design_point_validation_names_the_first_bad_field():
    with pytest.raises(ConfigurationError) as caught:
        DesignPoint(4, 0, 1.5, 1)
    assert str(caught.value) == (
        "design point field n must be positive, got 0 in "
        "DesignPoint(x=4, n=0, tx=1.5, ty=1)"
    )


def test_point_failure_describe_and_roundtrip():
    failure = PointFailure(
        point=BAD,
        stage="simulate",
        error_type="MappingError",
        message="cannot map conv1",
        wall_time_s=0.5,
        attempt=1,
    )
    assert "(4,1,1,1)" in failure.describe()
    assert "[simulate]" in failure.describe()
    rebuilt = PointFailure.from_dict(BAD, failure.to_dict())
    assert rebuilt == failure
