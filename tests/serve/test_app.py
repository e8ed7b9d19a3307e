"""End-to-end behavior of the daemon over real sockets.

The harness monkeypatches ``repro.dse.engine.evaluate_point`` *before*
the pool forks its workers, so the forked workers inherit the fake —
crashes, hangs, and integrity failures are injected exactly where a
real model failure would surface.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

import repro.dse.engine as engine_mod
import repro.dse.optimizer as optimizer_mod
from repro.dse.engine import run_sweep
from repro.dse.journal import load_journal
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, evaluate_point
from repro.errors import NumericalError
from repro.serve.client import RemoteError
from repro.serve.requestlog import load_request_log

POINT = [64, 2, 2, 4]
BAD = DesignPoint(32, 4, 2, 2)


def _result(point) -> DesignPointResult:
    return DesignPointResult(
        point=point,
        area_mm2=100.0 + point.x,
        tdp_w=50.0,
        peak_tops=10.0,
        estimate=None,
        outcomes=(),
    )


def _patch(monkeypatch, fake):
    monkeypatch.setattr(engine_mod, "evaluate_point", fake)


# -- happy path --------------------------------------------------------------


def test_status_reports_the_daemon_shape(harness_factory):
    harness = harness_factory(jobs=2, max_inflight=4)
    status = harness.client().wait_healthy()
    assert status["state"] == "serving"
    assert status["api_version"] == 1
    assert status["admission"]["max_inflight"] == 4
    assert status["pool"]["jobs"] == 2
    assert status["uptime_s"] >= 0
    assert status["backend"] == "scalar"  # the daemon default
    assert status["vector_fallbacks"] == {}


def test_status_reports_the_configured_backend(harness_factory):
    harness = harness_factory(jobs=1, backend="auto")
    status = harness.client().wait_healthy()
    assert status["backend"] == "auto"
    assert status["vector_fallbacks"] == {}


def test_estimate_is_bit_identical_to_the_local_path(harness_factory):
    harness = harness_factory(jobs=1)
    payload = harness.client().estimate(POINT)
    assert payload["status"] == "ok"
    local = evaluate_point(DesignPoint(*POINT))
    metrics = payload["metrics"]
    assert metrics["area_mm2"] == local.area_mm2
    assert metrics["tdp_w"] == local.tdp_w
    assert metrics["peak_tops"] == local.peak_tops
    assert metrics["peak_tops_per_watt"] == local.peak_tops_per_watt


def test_request_log_entry_is_durable_when_the_response_lands(
    harness_factory, tmp_path
):
    """Journaling now hops to the executor so the blocking fsync'd write
    stays off the event loop — but it must still complete *before* the
    response is released, so a client that got its answer can rely on
    the entry being on disk."""
    log_path = tmp_path / "requests.jsonl"
    harness = harness_factory(jobs=1, request_log=str(log_path))
    payload = harness.client().estimate(POINT)
    assert payload["status"] == "ok"
    entries = load_request_log(log_path)
    entry = next(e for e in entries if e["endpoint"] == "/estimate")
    assert entry["status"] == 200
    assert entry["error"] is None
    assert harness.app.request_log.recorded_total >= 1


def test_unknown_endpoint_is_404(harness_factory):
    harness = harness_factory()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().request("GET", "/no-such-endpoint")
    assert excinfo.value.status == 404


def test_bad_point_maps_to_400(harness_factory):
    harness = harness_factory()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().estimate([1, 2, 3])
    assert excinfo.value.status == 400
    assert excinfo.value.error_type == "ConfigurationError"


def test_unknown_workload_maps_to_400(harness_factory):
    harness = harness_factory()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().estimate(POINT, workloads=["bogus"], batch=1)
    assert excinfo.value.status == 400


def _post(harness, path, body, headers=()):
    """One raw POST, so headers the client never sends can be tried."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", harness.port, timeout=120
    )
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", **dict(headers)},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


@pytest.mark.parametrize(
    "path, body, headers, field",
    [
        ("/estimate", {"point": POINT, "batches": ["latency-bound"]}, (),
         "batches"),
        ("/estimate", {"point": POINT, "batch": "x"}, (), "batch"),
        ("/estimate", {"point": POINT}, (("X-Deadline-S", "soon"),),
         "X-Deadline-S"),
        ("/estimate", {"point": POINT, "node": "abc"}, (), "node"),
        ("/estimate", {"point": POINT, "node": 0}, (), "0"),
        ("/estimate", {"point": POINT, "freq": 0}, (), "clock rate"),
        ("/estimate", {"point": POINT, "deadline_s": -1}, (), "deadline_s"),
        ("/optimize", {"points": [POINT], "max_area_mm2": "big"}, (),
         "max_area_mm2"),
    ],
    ids=[
        "batches-latency-bound",
        "batch-not-a-number",
        "deadline-header-not-a-number",
        "node-not-a-number",
        "node-zero",
        "freq-zero",
        "deadline-negative",
        "optimize-max-area-not-a-number",
    ],
)
def test_bad_request_fields_map_to_400(
    harness_factory, path, body, headers, field
):
    harness = harness_factory(jobs=1)
    status, payload = _post(harness, path, body, headers)
    assert status == 400, payload
    assert field in payload["message"], payload
    assert harness.client().status()["state"] == "serving"


def test_optimize_runs_on_the_configured_backend(harness_factory, monkeypatch):
    backends = []
    optimize_design = optimizer_mod.optimize_design

    def spy(*args, **kwargs):
        backends.append(kwargs.get("backend"))
        return optimize_design(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "optimize_design", spy)
    harness = harness_factory(jobs=1, backend="auto")
    payload = harness.client().optimize(
        objective="tops-per-watt", points=[POINT, [16, 1, 2, 2]]
    )
    assert backends == ["auto"]
    assert payload["best"]["point"] in (POINT, [16, 1, 2, 2])


# -- fault tolerance ---------------------------------------------------------


def test_integrity_failure_maps_to_422(harness_factory, monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        raise NumericalError("tdp_w", float("nan"), "injected")

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1)
    with pytest.raises(RemoteError) as excinfo:
        harness.client().estimate(POINT)
    assert excinfo.value.status == 422
    assert excinfo.value.error_type == "NumericalError"
    assert "injected" in str(excinfo.value)


def test_worker_crash_is_retried_with_backoff(
    harness_factory, monkeypatch, tmp_path
):
    marker = tmp_path / "crashed-once"

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if not marker.exists():
            marker.write_text("down")
            os._exit(17)  # die without reporting, like an OOM kill
        return _result(point)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1, retry_attempts=3)
    payload = harness.client().estimate(POINT)
    assert payload["status"] == "ok"
    assert payload["attempts"] == 2
    assert payload["metrics"]["tdp_w"] == 50.0


def test_worker_crashes_exhaust_retries_to_500(
    harness_factory, monkeypatch
):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        os._exit(17)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1, retry_attempts=2)
    with pytest.raises(RemoteError) as excinfo:
        harness.client().estimate(POINT)
    assert excinfo.value.status == 500
    assert excinfo.value.error_type == "WorkerCrash"
    assert excinfo.value.payload["attempts"] == 2


def test_per_point_timeout_maps_to_504(harness_factory, monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(60)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1, timeout_s=0.5)
    start = time.monotonic()
    with pytest.raises(RemoteError) as excinfo:
        harness.client().estimate(POINT)
    assert time.monotonic() - start < 30
    assert excinfo.value.status == 504
    assert excinfo.value.error_type == "PointTimeoutError"


def test_request_deadline_maps_to_504_and_daemon_survives(
    harness_factory, monkeypatch
):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(30)
        return _result(point)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1)
    client = harness.client()
    with pytest.raises(RemoteError) as excinfo:
        client.request("POST", "/estimate",
                       {"point": POINT, "deadline_s": 0.5})
    assert excinfo.value.status == 504
    assert excinfo.value.error_type == "DeadlineExceeded"
    # The aborted work was killed, not leaked: the daemon still answers.
    assert client.status()["state"] == "serving"


def test_load_shedding_returns_503_with_retry_after(
    harness_factory, monkeypatch, tmp_path
):
    # The fake runs in a forked pool worker: signal across the process
    # boundary with marker files, not in-memory events.
    started_file = tmp_path / "started"
    release_file = tmp_path / "release"

    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        started_file.write_text("x")
        deadline = time.monotonic() + 30
        while not release_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        return _result(point)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1, max_inflight=1, retry_after_s=2.0)
    client = harness.client()
    slow = threading.Thread(
        target=lambda: client.estimate(POINT), daemon=True
    )
    slow.start()
    deadline = time.monotonic() + 30
    while not started_file.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert started_file.exists()
    try:
        with pytest.raises(RemoteError) as excinfo:
            harness.client().estimate([8, 4, 4, 8])
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "LoadShedError"
        assert excinfo.value.retry_after_s == 2.0
    finally:
        release_file.write_text("x")
        slow.join(timeout=30)
    assert harness.client().status()["admission"]["shed_total"] == 1


def test_breaker_degrades_a_failing_family(harness_factory, monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if workloads:
            raise NumericalError("utilization", 7.0, "injected")
        return _result(point)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=1, breaker_threshold=2)
    client = harness.client()
    # Each failing full evaluation is salvaged by the engine's degraded
    # retry (peak-only row) but counts against the family's breaker.
    for _ in range(2):
        payload = client.estimate(POINT, workloads=["resnet"], batch=1)
        assert payload["status"] == "degraded"
    assert client.status()["breaker"]["resnet"]["state"] == "open"
    # Tripped: workloads are dropped up front; the request never touches
    # the broken family slice and is served peak-only.
    payload = client.estimate(POINT, workloads=["resnet"], batch=1)
    assert payload["degraded"] is True
    assert payload["breaker"] == "open"
    assert payload["status"] == "ok"  # the peak-only evaluation itself


# -- sweeps, journaling, drain ----------------------------------------------


def test_sweep_returns_per_point_records(harness_factory, monkeypatch):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        if point == BAD:
            raise NumericalError("area_mm2", -1.0, "injected")
        return _result(point)

    _patch(monkeypatch, fake)
    harness = harness_factory(jobs=2)
    payload = harness.client().sweep(
        [[8, 4, 4, 8], [32, 4, 2, 2], [64, 2, 2, 4]]
    )
    by_point = {tuple(r["point"]): r for r in payload["records"]}
    assert by_point[(8, 4, 4, 8)]["status"] == "ok"
    assert by_point[(64, 2, 2, 4)]["status"] == "ok"
    bad = by_point[(32, 4, 2, 2)]
    assert bad["status"] == "failed"
    assert bad["failure"]["error_type"] == "NumericalError"
    assert payload["cancelled"] is False


def test_drain_checkpoints_inflight_sweep_for_resume(
    harness_factory, monkeypatch, tmp_path
):
    def fake(point, workloads=(), batches=(), ctx=None, slo=10.0):
        time.sleep(0.15)
        return _result(point)

    _patch(monkeypatch, fake)
    journal_dir = tmp_path / "journals"
    harness = harness_factory(
        jobs=1, journal_dir=str(journal_dir), drain_grace_s=30.0
    )
    client = harness.client()
    points = [[4 * (i + 1), 1, 1, 1] for i in range(12)]
    outcome = {}

    def run():
        try:
            outcome["payload"] = client.sweep(
                points, journal="drain-test.jsonl"
            )
        except RemoteError as error:
            outcome["error"] = error

    sweep_thread = threading.Thread(target=run, daemon=True)
    sweep_thread.start()
    time.sleep(0.6)  # a few points in
    drain_payload = client.drain()
    assert drain_payload["draining"] is True
    sweep_thread.join(timeout=30)
    assert not sweep_thread.is_alive()

    # The in-flight sweep answered 503 resumable, not a hang or a crash.
    error = outcome["error"]
    assert error.status == 503
    assert error.payload["resumable"] is True
    assert error.payload["journal"] == "drain-test.jsonl"

    # New work is refused while draining.
    with pytest.raises(RemoteError) as excinfo:
        client.estimate(POINT)
    assert excinfo.value.status == 503

    # The journal holds every finished point and a local --resume run
    # completes the remainder without re-evaluating them.
    journal_path = journal_dir / "drain-test.jsonl"
    finished = load_journal(journal_path)
    assert 0 < len(finished) < len(points)
    report = run_sweep(
        [DesignPoint(*p) for p in points],
        journal_path=journal_path,
        resume=True,
    )
    assert len(report.records) == len(points)
    resumed = [r for r in report.records if r.from_journal]
    assert len(resumed) == len(finished)


def test_doctor_over_the_wire_detects_injected_fault(harness_factory):
    harness = harness_factory()
    client = harness.client(deadline_s=300.0)
    payload = client.request(
        "POST",
        "/doctor?inject-fault=nan",
        {"checks": ["invariants"], "presets": ["eyeriss"]},
    )
    assert payload["fault_injected"] == "nan"
    assert payload["fault_detected"] is True
    assert payload["passed"] is False


def test_doctor_clean_run_passes(harness_factory):
    harness = harness_factory()
    client = harness.client(deadline_s=300.0)
    payload = client.doctor(checks=["tech-table"])
    assert payload["passed"] is True
    assert payload["fault_injected"] is None
