"""Contracts of the persistent chunked worker pool.

The engine's forked path dispatches *chunks* of points to long-lived
workers instead of forking per point.  These tests pin the semantics that
must survive that change: warm worker reuse, per-point failure isolation
within a chunk (crash and timeout fail only the in-flight point; the rest
of the chunk is requeued), and option validation.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

import repro.dse.engine as engine_mod
from repro.dse.engine import WorkerPool, derive_chunk_size, run_sweep
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult
from repro.errors import ConfigurationError

POINTS = [DesignPoint(4 * (i + 1), 1, 1, 1) for i in range(8)]
BAD = POINTS[2]


def _pid_result(point: DesignPoint) -> DesignPointResult:
    """Smuggle the worker's PID out through the TDP field."""
    return DesignPointResult(
        point=point,
        area_mm2=100.0,
        tdp_w=float(os.getpid()),
        peak_tops=50.0,
        estimate=None,
        outcomes=(),
    )


def _patch(monkeypatch, fake):
    monkeypatch.setattr(engine_mod, "evaluate_point", fake)


def test_workers_are_reused_across_chunks(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _pid_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(POINTS, jobs=2, chunk_size=1, strict=False)
    pids = {record.result.tdp_w for record in report.records}
    assert all(r.status == "ok" for r in report.records)
    # Eight points, at most two worker processes: persistent reuse.
    assert len(pids) <= 2
    assert os.getpid() not in {int(pid) for pid in pids}


def test_chunk_survives_crash_of_one_point(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            os._exit(13)  # die without reporting
        return _pid_result(point)

    _patch(monkeypatch, fake)
    # One worker, one chunk holding every point: the crash must fail only
    # the in-flight point and requeue the rest for a fresh worker.
    report = run_sweep(
        POINTS,
        jobs=1,
        timeout_s=60.0,
        chunk_size=len(POINTS),
        strict=False,
        retry_degraded=False,
    )
    record = report.record_for(BAD)
    assert record.status == "failed"
    assert record.failure.error_type == "WorkerCrash"
    assert "exit code 13" in record.failure.message
    others = [r for r in report.records if r.point != BAD]
    assert all(r.status == "ok" for r in others)


def test_result_that_does_not_pickle_fails_at_collect(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        result = _pid_result(point)
        if point == BAD:
            return replace(result, estimate=lambda: None)  # unpicklable
        return result

    _patch(monkeypatch, fake)
    report = run_sweep(POINTS, jobs=2, retry_degraded=False)
    record = report.record_for(BAD)
    assert record.status == "failed"
    assert record.result is None
    assert record.failure.stage == "collect"
    assert "could not be returned from the worker" in record.failure.message
    others = [r for r in report.records if r.point != BAD]
    assert all(r.status == "ok" for r in others)


def test_timeout_fails_only_the_inflight_point(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            time.sleep(60)
        return _pid_result(point)

    _patch(monkeypatch, fake)
    start = time.monotonic()
    report = run_sweep(
        POINTS,
        jobs=1,
        timeout_s=1.0,
        chunk_size=len(POINTS),
        strict=False,
        retry_degraded=False,
    )
    assert time.monotonic() - start < 30
    record = report.record_for(BAD)
    assert record.status == "failed"
    assert record.failure.stage == "timeout"
    # Every other point of the killed chunk was requeued and finished.
    others = [r for r in report.records if r.point != BAD]
    assert all(r.status == "ok" for r in others)


def test_timeout_clock_restarts_per_point(monkeypatch):
    """Chunked points each get the full per-point budget."""

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(0.4)  # under the budget, but 4 x 0.4 > 1.0 s total
        return _pid_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(
        POINTS[:4],
        jobs=1,
        timeout_s=1.0,
        chunk_size=4,
        strict=False,
    )
    assert all(r.status == "ok" for r in report.records)


def test_degraded_retry_goes_back_to_the_pool(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD and workloads:
            raise ValueError("needs the degraded path")
        return _pid_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(
        POINTS[:4],
        [("fake", None)],
        [1],
        jobs=2,
        chunk_size=2,
        strict=False,
    )
    record = report.record_for(BAD)
    assert record.status == "degraded"
    assert record.attempt == 2


def test_chunk_size_validation():
    with pytest.raises(ConfigurationError, match="chunk_size"):
        run_sweep(POINTS[:1], chunk_size=0)


def test_explicit_chunk_size_covers_all_points(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _pid_result(point)

    _patch(monkeypatch, fake)
    # chunk_size larger than the point count: one chunk, one worker.
    report = run_sweep(POINTS, jobs=4, chunk_size=100, strict=False)
    assert all(r.status == "ok" for r in report.records)
    assert len({r.result.tdp_w for r in report.records}) == 1


def test_derived_chunk_size_is_pinned():
    """Regression: tiny/empty sweeps must clamp to 1, never to 0."""
    assert derive_chunk_size(0, 4) == 1
    assert derive_chunk_size(-3, 4) == 1  # exhausted journal resume
    assert derive_chunk_size(2, 8) == 1  # fewer points than workers
    assert derive_chunk_size(1, 1) == 1
    assert derive_chunk_size(210, 8) == 7  # ceil(210 / 32)
    assert derive_chunk_size(100, 1) == 25


def test_empty_sweep_with_pool_jobs_does_not_crash(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _pid_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep([], jobs=4, timeout_s=10.0, strict=False)
    assert report.records == ()
    assert report.cancelled is False


def test_fewer_points_than_jobs_completes(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _pid_result(point)

    _patch(monkeypatch, fake)
    report = run_sweep(POINTS[:2], jobs=8, timeout_s=30.0, strict=False)
    assert all(r.status == "ok" for r in report.records)
    assert len(report.records) == 2


def test_shared_pool_keeps_workers_warm_across_sweeps(monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        return _pid_result(point)

    _patch(monkeypatch, fake)
    pool = WorkerPool(2)
    try:
        first = run_sweep(POINTS, jobs=2, chunk_size=1, strict=False,
                          pool=pool)
        second = run_sweep(POINTS, jobs=2, chunk_size=1, strict=False,
                           pool=pool)
        pids = {r.result.tdp_w for r in first.records}
        pids |= {r.result.tdp_w for r in second.records}
        # Same recipe twice through one pool: no respawn between runs.
        assert len(pids) <= 2
        assert pool.spawned_total <= 2
    finally:
        pool.close()


def test_drain_mid_chunk_requeues_unfinished_points_into_journal(
    monkeypatch, tmp_path
):
    """Satellite: a drain between points checkpoints the finished subset;
    the unfinished remainder is re-run (not lost, not double-counted) by
    a ``resume=True`` follow-up."""

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(0.05)
        return _pid_result(point)

    _patch(monkeypatch, fake)
    journal = tmp_path / "drain.jsonl"
    seen = []

    def abort_after_three():
        return len(seen) >= 3

    report = run_sweep(
        POINTS,
        jobs=1,
        chunk_size=len(POINTS),  # drain strikes mid-chunk
        strict=False,
        journal_path=journal,
        should_abort=abort_after_three,
        on_record=seen.append,
    )
    assert report.cancelled is True
    finished = {r.point for r in report.records}
    assert 0 < len(finished) < len(POINTS)

    # Every finished point is journaled; no unfinished point is.
    from repro.dse.journal import load_journal

    journaled = load_journal(journal)
    assert {entry.point for entry in journaled} == finished

    resumed = run_sweep(
        POINTS,
        jobs=1,
        strict=False,
        journal_path=journal,
        resume=True,
    )
    assert resumed.cancelled is False
    assert len(resumed.records) == len(POINTS)
    from_journal = [r for r in resumed.records if r.from_journal]
    assert {r.point for r in from_journal} == finished
