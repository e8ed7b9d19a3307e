"""The daemon application: routing, deadlines, retries, and degradation.

One :class:`ServeApp` owns the shared hot state every request benefits
from — the estimate cache, the tech substrates, and one persistent
:class:`~repro.dse.engine.WorkerPool` — plus the robustness machinery
that keeps the daemon alive under hostile traffic:

* the admission gate sheds excess load (503 + ``Retry-After``);
* every request runs under a wall-clock deadline (504 on expiry, and
  the in-flight engine work is aborted, not leaked);
* worker crashes retry with exponential backoff + jitter;
* consecutive integrity failures trip a per-family circuit breaker
  that degrades the family to peak-only estimates;
* every resolved request is journaled to crash-safe JSONL.

Handlers never let an exception escape: :meth:`ServeApp.handle` maps
every typed error onto the HTTP taxonomy in
:mod:`repro.serve.protocol` and answers 500 only for genuine daemon
bugs.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as _dc_replace
from typing import Optional, Sequence

from repro.arch.component import ModelContext
from repro.config.presets import DATACENTER_FREQ_GHZ, DATACENTER_TECH_NM
from repro.dse.engine import SweepReport, WorkerPool, run_sweep
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError, NeuroMeterError
from repro.serve.backpressure import AdmissionGate
from repro.serve.breaker import CircuitBreaker
from repro.serve.http import Request, Response
from repro.serve.protocol import (
    ERROR_TYPE_STATUS,
    INTEGRITY_ERROR_NAMES,
    LoadShedError,
    error_payload,
    status_for,
)
from repro.serve.requestlog import RequestLog
from repro.serve.retry import BackoffPolicy
from repro.tech.node import node as tech_node

API_VERSION = 1


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to boot, in one value object."""

    host: str = "127.0.0.1"
    port: int = 8757
    jobs: int = 2
    #: Estimation backend handed to ``run_sweep`` (``scalar``/``auto``/
    #: ``vector``); per-point vector fallbacks are tallied in ``/status``.
    backend: str = "scalar"
    timeout_s: Optional[float] = None  # per-point wall budget in the pool
    deadline_s: float = 60.0  # default per-request wall budget
    max_inflight: int = 8
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.05
    retry_after_s: float = 1.0
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    journal_dir: Optional[str] = None  # sweep checkpoints land here
    request_log: Optional[str] = None  # resolved request JSONL
    drain_grace_s: float = 30.0
    seed: int = 0
    #: Admission floor for budgeted /optimize requests: the daemon
    #: refuses (400) a surrogate search whose exact-evaluation budget
    #: times this per-evaluation cost floor cannot fit the request
    #: deadline, instead of accepting work guaranteed to die at 504.
    eval_cost_floor_s: float = 0.01
    #: JSON file re-read on SIGHUP; its keys overwrite the live-safe
    #: subset of this config (see :data:`RELOADABLE_KEYS`) without a
    #: restart — warm caches and in-flight requests are untouched.
    reload_config: Optional[str] = None


#: ServeConfig knobs that are safe to swap while serving: they are read
#: per-request (deadlines, retries) or live on mutable single-threaded
#: objects (admission gate, breaker windows).  Everything else — ports,
#: pool size, journal/log paths — requires a restart and is ignored by
#: a reload.
RELOADABLE_KEYS = (
    "deadline_s",
    "max_inflight",
    "retry_after_s",
    "retry_attempts",
    "retry_base_delay_s",
    "breaker_threshold",
    "breaker_reset_s",
    "drain_grace_s",
    "timeout_s",
    "eval_cost_floor_s",
)

_RELOAD_INT_KEYS = frozenset(
    {"max_inflight", "retry_attempts", "breaker_threshold"}
)


def _number(value: object, name: str, kind: type = float):
    """A numeric request field as ``kind``; a ConfigurationError otherwise.

    Every numeric body field and the ``X-Deadline-S`` header pass through
    here, so a malformed one answers 400 naming the field.  JSON numbers
    and numeric strings (headers arrive as text) are accepted; booleans,
    non-finite values and, for integers, fractions are not.
    """
    number = None
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if number is not None and math.isfinite(number):
        if kind is float:
            return number
        if number.is_integer():
            return value if isinstance(value, int) else int(number)
    expected = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(
        f"request field {name!r} must be {expected}, got {value!r}"
    )


def _batches(body: dict) -> list:
    """The request's batch sizes (``batches``, else ``batch``, else none)."""
    raw = body.get("batches")
    if raw:
        if not isinstance(raw, list):
            raise ConfigurationError(
                f"request field 'batches' must be a list, got {raw!r}"
            )
        return [_number(batch, "batches", int) for batch in raw]
    if "batch" in body:
        return [_number(body["batch"], "batch", int)]
    return []


def _parse_point(raw: object) -> DesignPoint:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ConfigurationError(
            f"a design point is a [X, N, Tx, Ty] list, got {raw!r}"
        )
    x, n, tx, ty = (_number(part, "point", int) for part in raw)
    return DesignPoint(x, n, tx, ty)


def _journal_name(name: object, name_max: int) -> str:
    """A request's ``journal`` field, checked to be a bare filename.

    The name must be a non-empty string other than ``.`` and ``..``,
    hold no ``/`` or NUL, and encode to at most ``name_max`` bytes, so
    the journal lands in the journal directory under exactly that name.
    """
    try:
        encoded = os.fsencode(name) if isinstance(name, str) else b""
    except UnicodeEncodeError:
        encoded = b""
    if (
        encoded in (b"", b".", b"..")
        or b"/" in encoded
        or b"\0" in encoded
        or len(encoded) > name_max
    ):
        raise ConfigurationError(
            f"request field 'journal' must be a bare filename of at most "
            f"{name_max} bytes, got {name!r}"
        )
    return name


def _point_json(point: DesignPoint) -> list:
    return [point.x, point.n, point.tx, point.ty]


def _record_payload(record) -> dict:
    """Serialize one engine PointRecord for the wire."""
    payload = {
        "point": _point_json(record.point),
        "status": record.status,
        "attempt": record.attempt,
        "wall_time_s": record.wall_time_s,
        "from_journal": record.from_journal,
    }
    if record.result is not None:
        payload["metrics"] = record.metrics
    if record.failure is not None:
        failure = record.failure
        payload["failure"] = {
            "stage": failure.stage,
            "error_type": failure.error_type,
            "message": failure.message,
            "degraded": failure.degraded,
        }
    if record.fallback is not None:
        payload["fallback"] = record.fallback
    return payload


class ServeApp:
    """The long-lived estimation application behind the HTTP front."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.pool = WorkerPool(config.jobs)
        self.gate = AdmissionGate(
            config.max_inflight, retry_after_s=config.retry_after_s
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_after_s=config.breaker_reset_s,
        )
        self.request_log = (
            RequestLog(config.request_log) if config.request_log else None
        )
        self.executor = ThreadPoolExecutor(
            max_workers=config.max_inflight,
            thread_name_prefix="neurometer-serve",
        )
        #: Set at drain time; every pooled sweep polls it between points.
        self.drain_abort = threading.Event()
        #: handle() calls currently running (loop-thread only).  The
        #: admission gate releases before the response is journaled and
        #: written, so the drain path waits on this too — otherwise the
        #: teardown cancels the last connections mid-journal.
        self.active_handles = 0
        #: Completed when a drain has been requested (lifecycle waits).
        self.drain_requested: Optional[asyncio.Event] = None
        self.started_at = time.monotonic()
        self.status_counts: Counter = Counter()
        #: Vector-backend fallback reason -> point count, accumulated
        #: over every sweep this daemon ran (surfaced in ``/status``).
        self.fallback_counts: Counter = Counter()
        self._request_ids = itertools.count(1)
        self._sweep_ids = itertools.count(1)
        # Value-stable workload objects: PoolJobConfig compares graphs by
        # identity, so reusing these keeps pool workers warm across
        # requests for the same recipe.  Contexts compare by value, so
        # each request builds its own.
        self._graphs: dict = {}
        self._lock = threading.Lock()
        #: Longest journal filename, in bytes, the journal directory's
        #: filesystem accepts (``None`` without a journal directory).
        self._journal_name_max: Optional[int] = None
        if config.journal_dir is not None:
            os.makedirs(config.journal_dir, exist_ok=True)
            self._journal_name_max = os.pathconf(
                config.journal_dir, "PC_NAME_MAX"
            )

    # -- shared hot objects --------------------------------------------------

    def _workloads(self, names: Sequence[str]) -> tuple:
        from repro.cli import _WORKLOADS

        pairs = []
        for name in names:
            if name not in _WORKLOADS:
                raise ConfigurationError(
                    f"unknown workload {name!r}; choose from "
                    f"{sorted(_WORKLOADS)}"
                )
            with self._lock:
                if name not in self._graphs:
                    self._graphs[name] = _WORKLOADS[name]()
                graph = self._graphs[name]
            pairs.append((name, graph))
        return tuple(pairs)

    def _context(self, body: dict) -> Optional[ModelContext]:
        node = body.get("node")
        freq = body.get("freq")
        if node is None and freq is None:
            return None  # engine default (Table I context)
        # Given values pass through as given: the node table and the
        # context reject out-of-range ones (both answer 400).
        feature_nm = (
            float(DATACENTER_TECH_NM)
            if node is None
            else _number(node, "node")
        )
        freq_ghz = (
            DATACENTER_FREQ_GHZ if freq is None else _number(freq, "freq")
        )
        return ModelContext(tech=tech_node(feature_nm), freq_ghz=freq_ghz)

    def _deadline_s(self, request: Request, body: dict) -> float:
        """The request's wall budget: header, else body, else the default."""
        name, raw = "X-Deadline-S", request.headers.get("x-deadline-s")
        if raw is None:
            name, raw = "deadline_s", body.get("deadline_s")
        if raw is None:
            return self.config.deadline_s
        deadline_s = _number(raw, name)
        if deadline_s <= 0:
            raise ConfigurationError(
                f"request field {name!r} must be positive, got {raw!r}"
            )
        return deadline_s

    def _backoff(self) -> BackoffPolicy:
        return BackoffPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            seed=self.config.seed,
        )

    # -- request plumbing ----------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Route one request; every outcome is a well-formed response."""
        self.active_handles += 1
        try:
            return await self._handle(request)
        finally:
            self.active_handles -= 1

    async def _handle(self, request: Request) -> Response:
        started = time.perf_counter()
        request_id = next(self._request_ids)
        endpoint = request.path.rstrip("/") or "/"
        try:
            response = await self._dispatch(request, endpoint)
        except NeuroMeterError as error:
            response = self._error_response(error)
        except asyncio.CancelledError:
            raise  # the loop is going down; do not answer
        except Exception as error:  # daemon bug: answer 500, stay alive
            response = Response(500, error_payload(error, status=500))
        self.status_counts[response.status] += 1
        if self.request_log is not None:
            # The journal write is flushed + fsynced: blocking work that
            # must not run on the event loop.  Awaiting the executor hop
            # keeps the durability contract — the entry is on disk
            # before the response leaves.
            wall_time_s = time.perf_counter() - started
            try:
                await self._run_blocking(
                    self._journal_request,
                    request_id, endpoint, response, wall_time_s,
                )
            except RuntimeError:
                # Drain teardown shut the executor while we were
                # suspended at the await.  The loop is no longer
                # serving traffic, so journaling inline is harmless —
                # unless the log itself is already closed, in which
                # case the teardown owns the shutdown-window entry.
                try:
                    self._journal_request(  # lint: allow(NM401): executor is gone; the loop serves no other traffic during teardown
                        request_id, endpoint, response, wall_time_s
                    )
                except ConfigurationError:
                    pass
        return response

    def _journal_request(self, request_id: int, endpoint: str,
                         response: Response, wall_time_s: float) -> None:
        """Sync journal append; runs on the executor, never the loop."""
        self.request_log.record(
            request_id=request_id,
            endpoint=endpoint,
            status=response.status,
            wall_time_s=wall_time_s,
            error=response.payload.get("error"),
        )

    def _error_response(self, error: NeuroMeterError) -> Response:
        status = status_for(error)
        headers = {}
        if isinstance(error, LoadShedError):
            headers["Retry-After"] = f"{max(1, round(error.retry_after_s))}"
        return Response(status, error_payload(error, status), headers)

    async def _dispatch(self, request: Request, endpoint: str) -> Response:
        if endpoint == "/status":
            return Response(200, self.status_payload())
        if endpoint == "/drain":
            return self._handle_drain()
        handlers = {
            "/estimate": self._handle_estimate,
            "/sweep": self._handle_sweep,
            "/optimize": self._handle_optimize,
            "/doctor": self._handle_doctor,
        }
        handler = handlers.get(endpoint)
        if handler is None:
            return Response(404, {
                "error": "NotFound",
                "message": f"no such endpoint {endpoint!r}",
                "status": 404,
            })
        body = request.json()
        deadline_s = self._deadline_s(request, body)
        with self.gate.admit():
            abort = threading.Event()
            try:
                return await asyncio.wait_for(
                    handler(request, body, abort), timeout=deadline_s
                )
            except asyncio.TimeoutError:
                abort.set()  # stop the engine work, do not leak it
                return Response(504, {
                    "error": "DeadlineExceeded",
                    "message": f"request exceeded its {deadline_s:g}s "
                    "deadline",
                    "status": 504,
                })

    def _should_abort(self, request_abort: threading.Event):
        drain = self.drain_abort
        return lambda: drain.is_set() or request_abort.is_set()

    async def _run_blocking(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    # -- endpoints -----------------------------------------------------------

    async def _handle_estimate(
        self, request: Request, body: dict, abort: threading.Event
    ) -> Response:
        point = _parse_point(body.get("point"))
        names = list(body.get("workloads") or ())
        batches = _batches(body)
        ctx = self._context(body)
        family = "|".join(sorted(names)) if names else "peak"

        degraded_by_breaker = False
        workloads = self._workloads(names) if names else ()
        if names and not self.breaker.allow_full(family):
            # Family is tripped: serve the peak-only slice of the model.
            degraded_by_breaker = True
            workloads, batches = (), []

        report, attempts = await self._sweep_with_retries(
            [point], workloads, batches, ctx, abort
        )
        if report.cancelled:
            return self._cancelled_response()
        record = report.records[0]
        if record.status == "failed":
            failure = record.failure
            if failure.error_type in INTEGRITY_ERROR_NAMES:
                self.breaker.record_integrity_failure(family)
            status = ERROR_TYPE_STATUS.get(failure.error_type, 500)
            return Response(status, {
                "error": failure.error_type,
                "message": failure.message,
                "status": status,
                "point": _point_json(point),
                "stage": failure.stage,
                "attempts": attempts,
            })
        if names and not degraded_by_breaker:
            if record.status == "degraded" and record.failure is not None \
                    and record.failure.error_type in INTEGRITY_ERROR_NAMES:
                self.breaker.record_integrity_failure(family)
            else:
                self.breaker.record_success(family)
        payload = _record_payload(record)
        payload.update({
            "attempts": attempts,
            "degraded": record.status == "degraded" or degraded_by_breaker,
            "breaker": self.breaker.state(family),
            "family": family,
        })
        return Response(200, payload)

    async def _sweep_with_retries(
        self,
        points,
        workloads,
        batches,
        ctx,
        abort: threading.Event,
        journal_path: Optional[str] = None,
        resume: bool = False,
    ) -> "tuple[SweepReport, int]":
        """Run one pooled sweep, retrying whole-run worker crashes.

        Only requests whose *every* failure is a ``WorkerCrash`` are
        retried — a crashed worker says nothing about the request, while
        typed model errors are deterministic and retrying them would
        just burn workers.
        """
        should_abort = self._should_abort(abort)

        def _once() -> SweepReport:
            return run_sweep(
                points,
                workloads,
                batches,
                ctx,
                backend=self.config.backend,
                jobs=self.config.jobs,
                timeout_s=self.config.timeout_s,
                strict=False,
                pool=self.pool,
                should_abort=should_abort,
                journal_path=journal_path,
                resume=resume,
            )

        attempts = 1
        report = await self._run_blocking(_once)
        for delay in self._backoff().delays():
            crashes = [
                r for r in report.records
                if r.status == "failed"
                and r.failure is not None
                and r.failure.error_type == "WorkerCrash"
            ]
            if not crashes or report.cancelled:
                break
            await asyncio.sleep(delay)
            if should_abort():
                break
            attempts += 1
            # Re-run only what crashed; finished points keep their rows.
            retry_points = [r.point for r in crashes]
            retried = await self._run_blocking(
                lambda: run_sweep(
                    retry_points,
                    workloads,
                    batches,
                    ctx,
                    backend=self.config.backend,
                    jobs=self.config.jobs,
                    timeout_s=self.config.timeout_s,
                    strict=False,
                    pool=self.pool,
                    should_abort=should_abort,
                )
            )
            merged = {r.point: r for r in report.records}
            for record in retried.records:
                merged[record.point] = record
            report = SweepReport(
                records=tuple(
                    merged[r.point] for r in report.records
                ),
                cancelled=retried.cancelled,
            )
        self.fallback_counts.update(report.fallback_totals())
        return report, attempts

    def _cancelled_response(self, journal: Optional[str] = None) -> Response:
        if self.drain_abort.is_set():
            payload = {
                "error": "DrainingError",
                "message": "daemon drained mid-request; finished points "
                "are journaled",
                "status": 503,
            }
            if journal:
                payload["journal"] = journal
                payload["resumable"] = True
            return Response(503, payload, {"Retry-After": "5"})
        payload = {
            "error": "DeadlineExceeded",
            "message": "request aborted at its deadline",
            "status": 504,
        }
        if journal:
            payload["journal"] = journal
            payload["resumable"] = True
        return Response(504, payload)

    async def _handle_sweep(
        self, request: Request, body: dict, abort: threading.Event
    ) -> Response:
        raw_points = body.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise ConfigurationError(
                "a sweep request needs a non-empty 'points' list"
            )
        points = [_parse_point(raw) for raw in raw_points]
        names = list(body.get("workloads") or ())
        workloads = self._workloads(names) if names else ()
        batches = _batches(body)
        ctx = self._context(body)

        journal_path = None
        journal_name = body.get("journal")
        resume = bool(body.get("resume"))
        if self.config.journal_dir is not None:
            if journal_name is None:
                journal_name = f"sweep-{next(self._sweep_ids)}.jsonl"
            journal_path = os.path.join(
                self.config.journal_dir,
                _journal_name(journal_name, self._journal_name_max),
            )
        elif resume or journal_name:
            raise ConfigurationError(
                "this daemon runs without --journal-dir; journaled "
                "sweeps are unavailable"
            )

        report, attempts = await self._sweep_with_retries(
            points, workloads, batches, ctx, abort,
            journal_path=journal_path, resume=resume,
        )
        if report.cancelled:
            return self._cancelled_response(journal=journal_name)
        payload = {
            "records": [_record_payload(r) for r in report.records],
            "summary": report.summary(),
            "attempts": attempts,
            "cancelled": False,
        }
        if journal_name:
            payload["journal"] = journal_name
        return Response(200, payload)

    async def _handle_optimize(
        self, request: Request, body: dict, abort: threading.Event
    ) -> Response:
        from repro.dse.optimizer import (
            STRATEGIES,
            Constraints,
            Objective,
            optimize_design,
        )
        from repro.dse.space import design_space

        try:
            objective = Objective(body.get("objective", "tops-per-tco"))
        except ValueError as error:
            raise ConfigurationError(
                f"unknown objective {body.get('objective')!r}; choose "
                f"from {[o.value for o in Objective]}"
            ) from error
        strategy = str(body.get("strategy", "exhaustive"))
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
        constraints = Constraints(
            **{
                name: None if body.get(name) is None
                else _number(body[name], name)
                for name in ("max_area_mm2", "max_tdp_w", "min_peak_tops")
            }
        )
        raw_points = body.get("points")
        points = (
            [_parse_point(raw) for raw in raw_points]
            if raw_points
            else design_space(check_budgets=False)
        )
        names = list(body.get("workloads") or ())
        if objective.needs_workloads and not names:
            names = ["resnet", "inception", "nasnet"]
        workloads = self._workloads(names) if names else ()
        batch = _number(body.get("batch", 1), "batch", int)
        ctx = self._context(body)
        eval_budget = None
        seed = _number(body.get("seed", self.config.seed), "seed", int)
        if strategy == "surrogate":
            eval_budget = _number(
                body.get("eval_budget", max(8, len(points) // 4)),
                "eval_budget",
                int,
            )
            # Admission check: refuse a budget the deadline can never
            # fund, rather than accepting work guaranteed to die at 504.
            deadline_s = self._deadline_s(request, body)
            floor_s = eval_budget * self.config.eval_cost_floor_s
            if floor_s > deadline_s:
                raise ConfigurationError(
                    f"eval_budget {eval_budget} needs at least "
                    f"{floor_s:.1f}s of exact evaluations but the "
                    f"request deadline is {deadline_s:g}s; lower the "
                    "budget or raise deadline_s"
                )
        should_abort = self._should_abort(abort)

        def _optimize():
            return optimize_design(
                points,
                objective,
                constraints,
                workloads=workloads,
                batch=batch,
                ctx=ctx,
                backend=self.config.backend,
                strict=False,
                strategy=strategy,
                eval_budget=eval_budget,
                seed=seed,
                should_abort=should_abort,
            )

        outcome = await self._run_blocking(_optimize)
        if outcome.cancelled or outcome.best is None:
            return self._cancelled_response()
        best = outcome.best
        return Response(200, {
            "objective": objective.value,
            "strategy": outcome.strategy,
            "exact_evaluations": outcome.exact_evaluations,
            "candidates": len(points),
            "best": {
                "point": _point_json(best.point),
                "area_mm2": best.area_mm2,
                "tdp_w": best.tdp_w,
                "peak_tops": best.peak_tops,
            },
            "ranking": [_point_json(r.point) for r in outcome.ranking],
            "infeasible": [_point_json(p) for p in outcome.infeasible],
            "failures": [
                {"point": _point_json(f.point),
                 "error_type": f.error_type,
                 "message": f.message}
                for f in outcome.failures
            ],
        })

    async def _handle_doctor(
        self, request: Request, body: dict, abort: threading.Event
    ) -> Response:
        from repro.integrity.doctor import run_doctor
        from repro.integrity.faults import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            fault_injection,
        )

        checks = body.get("checks") or (
            request.query["check"].split(",")
            if "check" in request.query else None
        )
        presets = body.get("presets") or (
            request.query["preset"].split(",")
            if "preset" in request.query else None
        )
        inject = body.get("inject_fault") or request.query.get("inject-fault")
        if inject is not None:
            try:
                kind = FaultKind(inject)
            except ValueError as error:
                raise ConfigurationError(
                    f"unknown fault kind {inject!r}; choose from "
                    f"{[k.value for k in FaultKind]}"
                ) from error

        def _doctor():
            def _run():
                return run_doctor(preset_names=presets, checks=checks)

            if inject is None:
                return _run(), None
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        target=str(body.get("fault_target", "")),
                        kind=kind,
                        field=str(body.get("fault_field", "dynamic_w")),
                        max_hits=0,
                    ),
                ),
                seed=_number(body.get("seed", self.config.seed), "seed", int),
            )
            with fault_injection(plan):
                return _run(), inject

        report, injected = await self._run_blocking(_doctor)
        payload = report.to_dict()
        payload["fault_injected"] = injected
        if injected is not None:
            payload["fault_detected"] = not report.passed
            if report.passed:
                return Response(500, {
                    "error": "FaultEscaped",
                    "message": "injected fault escaped every doctor check",
                    "status": 500,
                    "report": payload,
                })
        return Response(200, payload)

    def _handle_drain(self) -> Response:
        self.begin_drain()
        return Response(202, {
            "draining": True,
            "inflight": self.gate.inflight,
        })

    # -- lifecycle -----------------------------------------------------------

    def reload_config(self, path: Optional[str] = None) -> dict:
        """Re-read the reload file and swap the live-safe config knobs.

        Invoked by the SIGHUP handler on the event loop (the same
        thread that reads the admission gate and breaker windows, so no
        locking is needed).  Only :data:`RELOADABLE_KEYS` are applied;
        anything else in the file is reported back as ignored.  The warm
        estimate cache, the worker pool, and admitted in-flight requests
        are untouched — new limits apply from the next admission on.
        A missing or malformed file changes nothing.

        Returns ``{"changed": {key: [old, new]}, "ignored": [...]}``
        (empty on a failed read), and journals the same payload to the
        request log as a ``/-/config-reload`` event.
        """
        path = path or self.config.reload_config
        outcome: dict = {"changed": {}, "ignored": []}
        if not path:
            return outcome
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ConfigurationError("reload file must hold an object")
        except (OSError, ValueError, ConfigurationError) as error:
            print(
                f"neurometer serve: config reload from {path} failed, "
                f"keeping current config: {error}",
                file=sys.stderr,
                flush=True,
            )
            self._journal_reload(path, outcome, error=type(error).__name__)
            return outcome
        updates = {}
        for key in sorted(payload):
            value = payload[key]
            if key not in RELOADABLE_KEYS:
                outcome["ignored"].append(key)
                continue
            if value is not None:
                value = (
                    int(value) if key in _RELOAD_INT_KEYS else float(value)
                )
            old = getattr(self.config, key)
            if value != old:
                updates[key] = value
                outcome["changed"][key] = [old, value]
        if updates:
            self.config = _dc_replace(self.config, **updates)
            self.gate.max_inflight = self.config.max_inflight
            self.gate.retry_after_s = self.config.retry_after_s
            self.breaker.failure_threshold = max(
                1, self.config.breaker_threshold
            )
            self.breaker.reset_after_s = self.config.breaker_reset_s
        print(
            f"neurometer serve: config reloaded from {path} "
            f"({len(outcome['changed'])} change(s), "
            f"{len(outcome['ignored'])} ignored)",
            file=sys.stderr,
            flush=True,
        )
        self._journal_reload(path, outcome)
        return outcome

    def _journal_reload(
        self, path: str, outcome: dict, error: Optional[str] = None
    ) -> None:
        if self.request_log is None:
            return
        self.request_log.record(
            request_id=next(self._request_ids),
            endpoint="/-/config-reload",
            status=500 if error else 200,
            wall_time_s=0.0,
            error=error,
            detail={"path": path, **outcome},
        )

    def begin_drain(self) -> None:
        """Stop admitting and checkpoint in-flight sweeps.

        Admitted requests are not killed: pooled sweeps observe
        ``drain_abort`` at the next point boundary, journal what
        finished, and answer 503 with ``resumable: true``.
        """
        self.gate.begin_drain()
        self.drain_abort.set()
        if self.drain_requested is not None:
            self.drain_requested.set()

    def status_payload(self) -> dict:
        from repro.cache.store import get_estimate_cache

        return {
            "api_version": API_VERSION,
            "state": "draining" if self.gate.draining else "serving",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "admission": self.gate.snapshot(),
            "breaker": self.breaker.snapshot(),
            "pool": {
                "jobs": self.pool.jobs,
                "workers": len(self.pool.workers),
                "worker_pids": self.pool.worker_pids(),
                "spawned_total": self.pool.spawned_total,
            },
            "cache": get_estimate_cache().stats.snapshot(),
            "backend": self.config.backend,
            "vector_fallbacks": {
                reason: count
                for reason, count in sorted(self.fallback_counts.items())
            },
            "responses_by_status": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
            "requests_journaled": (
                self.request_log.recorded_total
                if self.request_log is not None else None
            ),
        }

    def close(self) -> None:
        """Tear down the shared state (pool, executor, request log)."""
        self.drain_abort.set()
        self.executor.shutdown(wait=True)
        self.pool.close()
        if self.request_log is not None:
            self.request_log.close()
