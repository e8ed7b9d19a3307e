"""Fault-tolerant sweep execution engine.

The Fig. 8 / Fig. 10 studies evaluate hundreds of design points, and at
that scale individual failures are expected, not exceptional: the memory
bank optimizer can find no feasible organization for a pathological tile
(:class:`~repro.errors.OptimizationError`), an operator may not map onto a
degenerate core grid (:class:`~repro.errors.MappingError`), a calibration
curve-fit can leak a NaN.  A naive loop turns any of these into an aborted
study and throws away every point already evaluated.

This engine treats the cost model as a service that must survive bad
points:

* **Per-point fault isolation** — each evaluation runs in a guarded unit;
  an exception becomes a structured :class:`PointFailure` (error class,
  stage, wall time) instead of a traceback, unless ``strict=True``.
* **Vectorized batch estimation** — with ``backend="vector"`` (or
  ``"auto"``), whole sweeps — peak metrics *and* workload simulation —
  are evaluated through the NumPy array kernels of :mod:`repro.batch`
  in a handful of array operations; ``auto`` transparently routes
  unsupported, build-failing, or infeasible points back through the
  scalar path so results match the scalar backend exactly, and each
  record carries its fallback reason for operator visibility.
* **Persistent worker pool with per-point timeouts** — with ``jobs > 1``
  or a ``timeout_s``, points run in forked worker processes that stay
  warm across *chunks* of points instead of forking per point; a hung
  point is killed at the deadline (failing only the in-flight point —
  the rest of its chunk is requeued) and recorded as a timeout failure.
  The pool itself is a first-class :class:`WorkerPool` handle: a
  long-lived caller (the ``neurometer serve`` daemon) can keep one pool
  warm and pass it to many ``run_sweep`` calls instead of paying
  fork/teardown per request.
* **Cooperative cancellation** — a ``should_abort`` hook is polled
  between points; when it fires, the run stops admitting work, kills
  in-flight workers, and returns a partial report flagged
  ``cancelled=True``.  Finished points are already journaled, so a
  resumed run picks up exactly the unfinished remainder (graceful
  drain).
* **Retry with graceful degradation** — a failed point is retried once
  with the workload recipe dropped, so the study still gets the
  area/TDP/peak-TOPS row where achievable (status ``degraded``).
* **Checkpoint/resume** — with a ``journal_path``, every finished point is
  journaled to JSONL (:mod:`repro.dse.journal`), one fsynced commit per
  batch: a vector batch's rows together once the batch is scored, any
  other point alone, so a crash loses at most the batch in flight.
  ``resume=True`` refuses a journal stamped for another recipe, skips
  journaled points and rehydrates their metrics.
* **Result guardrails** — every accepted result passes
  :func:`repro.integrity.validate_result`; NaN/inf/out-of-range
  values are rejected at the boundary as
  :class:`~repro.errors.NumericalError`.

The legacy :func:`repro.dse.sweep.sweep` delegates here with
``strict=True, jobs=1`` and is behaviorally unchanged.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as _wait_connections
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.arch.component import ModelContext
from repro.cache.store import _Totals, get_estimate_cache
from repro.dse.journal import (
    Journal,
    JournalEntry,
    recipe_digest,
    summarize_result,
)
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, evaluate_point
from repro.errors import (
    ConfigurationError,
    MappingError,
    NeuroMeterError,
    NumericalError,
    OptimizationError,
    PointTimeoutError,
)
from repro.integrity import validate_result
from repro.perf.graph import Graph
from repro.perf.simulator import DEFAULT_LATENCY_SLO_MS

#: Evaluation stages a failure can be attributed to.
STAGES = (
    "build",
    "estimate",
    "simulate",
    "power",
    "validate",
    "timeout",
    "collect",
    "evaluate",
)

#: Seconds to wait for a killed worker to be reaped before moving on.
_JOIN_GRACE_S = 5.0

#: Poll-loop ceiling while a cancellation hook is armed, so an abort is
#: noticed within this bound even when every worker is deep in a point.
_ABORT_POLL_S = 0.25


def derive_chunk_size(n_tasks: int, jobs: int) -> int:
    """Points dispatched per worker chunk when the caller picked none.

    Targets roughly four chunks per worker (``ceil(n / (4 * jobs))``) so
    stragglers rebalance, clamped to at least 1: an empty or tiny sweep
    (``n_tasks < jobs``, or zero after a journal resume) must degrade to
    one-point chunks, never to a zero chunk size that would dispatch
    empty chunks forever.
    """
    if n_tasks <= 0:
        return 1
    return max(1, math.ceil(n_tasks / (4 * max(1, jobs))))


def warm_substrate_cache(
    points: Sequence[DesignPoint], ctx: Optional[ModelContext] = None
) -> int:
    """Pre-seed the estimate cache with each unique per-core substrate.

    Design points sharing ``(X, N)`` differ only in the core grid, so their
    core estimate — tensor units, memory bank search, vector path — is
    identical.  Estimating each unique core once in the parent process
    means forked workers inherit the warm entries by copy-on-write instead
    of re-running the substrate models per process.

    Warming is best-effort: a point whose core cannot be modeled is simply
    skipped (the sweep will record its failure properly).  Returns the
    number of unique substrates warmed.
    """
    if not get_estimate_cache().enabled:
        return 0
    from repro.config.presets import datacenter_context

    resolved = ctx if ctx is not None else datacenter_context()
    seen: set[tuple[int, int]] = set()
    for point in points:
        signature = (point.x, point.n)
        if signature in seen:
            continue
        seen.add(signature)
        try:
            point.build().core.estimate(resolved)
        except Exception:
            continue
    return len(seen)


def classify_stage(error: BaseException) -> str:
    """Attribute an exception to an evaluation stage.

    Prefers the ``stage`` tag attached by :func:`~repro.dse.sweep._stage`
    inside :func:`~repro.dse.sweep.evaluate_point`; falls back to the
    exception type for errors raised outside the tagged blocks.
    """
    stage = getattr(error, "stage", None)
    if isinstance(stage, str) and stage in STAGES:
        return stage
    if isinstance(error, NumericalError):
        return "validate"
    if isinstance(error, PointTimeoutError):
        return "timeout"
    if isinstance(error, MappingError):
        return "simulate"
    if isinstance(error, OptimizationError):
        return "build"
    return "evaluate"


@dataclass(frozen=True)
class PointFailure:
    """One failed evaluation attempt, structured for reporting.

    Attributes:
        point: The design tuple that failed.
        stage: Where it failed (see :data:`STAGES`).
        error_type: Exception class name (``PointTimeoutError`` for
            killed points, ``WorkerCrash`` for workers that died without
            reporting).
        message: The exception message.
        wall_time_s: Time spent on the failing attempt.
        attempt: 1 for the primary attempt, 2 for the degraded retry.
        degraded: Whether the failing attempt was the degraded retry.
        component_path: Dotted model path the failure originated in
            (``chip.core.tensor_unit``), when the error carried one.
        config_digest: Content digest of the offending configuration
            (the estimate-cache key prefix), when the error carried one.
    """

    point: DesignPoint
    stage: str
    error_type: str
    message: str
    wall_time_s: float = 0.0
    attempt: int = 1
    degraded: bool = False
    component_path: Optional[str] = None
    config_digest: Optional[str] = None

    def describe(self) -> str:
        where = f" at {self.component_path}" if self.component_path else ""
        return (
            f"{self.point.label()} [{self.stage}] "
            f"{self.error_type}: {self.message}{where}"
        )

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "wall_time_s": round(self.wall_time_s, 6),
            "attempt": self.attempt,
            "degraded": self.degraded,
            "component_path": self.component_path,
            "config_digest": self.config_digest,
        }

    @classmethod
    def from_dict(cls, point: DesignPoint, payload: dict) -> "PointFailure":
        path = payload.get("component_path")
        digest = payload.get("config_digest")
        return cls(
            point=point,
            stage=str(payload.get("stage", "evaluate")),
            error_type=str(payload.get("error_type", "Exception")),
            message=str(payload.get("message", "")),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            attempt=int(payload.get("attempt", 1)),
            degraded=bool(payload.get("degraded", False)),
            component_path=str(path) if path is not None else None,
            config_digest=str(digest) if digest is not None else None,
        )

    @classmethod
    def from_error(
        cls,
        point: DesignPoint,
        error: BaseException,
        *,
        wall_time_s: float = 0.0,
        attempt: int = 1,
        degraded: bool = False,
    ) -> "PointFailure":
        """Build a failure from a raised error, carrying its diagnostics."""
        return cls(
            point=point,
            stage=classify_stage(error),
            error_type=type(error).__name__,
            message=str(error),
            wall_time_s=wall_time_s,
            attempt=attempt,
            degraded=degraded,
            component_path=getattr(error, "component_path", None),
            config_digest=getattr(error, "config_digest", None),
        )


@dataclass(frozen=True)
class PointRecord:
    """The final outcome of one design point in a sweep.

    ``status`` is ``ok`` (full evaluation), ``degraded`` (peak-only
    metrics salvaged by the retry; ``failure`` holds the original error),
    or ``failed`` (both attempts exhausted).  ``result`` is the point's
    :class:`~repro.dse.sweep.DesignPointResult` row, however it was
    produced (scalar, vector, forked, or rehydrated from a journal);
    ``metrics`` is that row's JSON form, derived on each read.
    """

    point: DesignPoint
    status: str
    result: Optional[DesignPointResult] = None
    failure: Optional[PointFailure] = None
    wall_time_s: float = 0.0
    attempt: int = 1
    from_journal: bool = False
    cache: Optional[dict] = None
    #: Vector-backend fallback reason (``repro.batch.estimator`` taxonomy)
    #: when this point was routed back to the scalar path; ``None`` for
    #: vectorized points and pure-scalar sweeps.
    fallback: Optional[str] = None

    @property
    def metrics(self) -> Optional[dict]:
        """The result's :func:`~repro.dse.journal.summarize_result` form
        (``None`` without a result)."""
        if self.result is None:
            return None
        return summarize_result(self.result)

    def journal_entry(self) -> JournalEntry:
        """This record as a journal row, stamped ``source: "exact"``:
        records come from the analytical model, never a surrogate."""
        return JournalEntry(
            point=self.point,
            status=self.status,
            attempt=self.attempt,
            wall_time_s=self.wall_time_s,
            metrics=self.metrics,
            failure=self.failure.to_dict() if self.failure else None,
            cache=self.cache,
            fallback=self.fallback,
            source="exact",
        )


def record_from_journal_entry(entry: JournalEntry) -> PointRecord:
    """Rehydrate one journaled entry into a ``from_journal`` record.

    Carries the full per-point surface — metrics, structured failure,
    cache counters, and fallback reason — so journal-resumed records
    aggregate exactly like freshly evaluated ones.
    """
    return PointRecord(
        point=entry.point,
        status=entry.status,
        result=entry.summary_result(),
        failure=(
            PointFailure.from_dict(entry.point, entry.failure)
            if entry.failure
            else None
        ),
        wall_time_s=entry.wall_time_s,
        attempt=entry.attempt,
        from_journal=True,
        cache=entry.cache,
        fallback=entry.fallback,
    )


@dataclass(frozen=True)
class SweepReport:
    """Everything a study learned from one engine run.

    ``cancelled`` marks a run stopped early by the ``should_abort``
    hook: the records cover only the points finished before the abort,
    and (with a journal) a ``resume=True`` rerun completes the rest.
    """

    records: tuple[PointRecord, ...]
    cancelled: bool = False

    @property
    def results(self) -> list[DesignPointResult]:
        """Usable result rows (ok + degraded), in input-point order."""
        return [r.result for r in self.records if r.result is not None]

    @property
    def failures(self) -> list[PointFailure]:
        """Structured failures of the points that produced no row."""
        return [
            r.failure
            for r in self.records
            if r.status == "failed" and r.failure is not None
        ]

    @property
    def degraded(self) -> list[PointRecord]:
        return [r for r in self.records if r.status == "degraded"]

    def record_for(self, point: DesignPoint) -> Optional[PointRecord]:
        for record in self.records:
            if record.point == point:
                return record
        return None

    def fallback_totals(self) -> dict:
        """Vector-backend fallback reason -> point count for this run.

        Empty for pure-scalar sweeps and sweeps the vector path covered
        fully, so operators can assert "zero fallbacks" directly.
        """
        totals: dict[str, int] = {}
        for record in self.records:
            if record.fallback is not None:
                totals[record.fallback] = totals.get(record.fallback, 0) + 1
        return totals

    def cache_totals(self) -> dict:
        """Estimate-cache counters summed over the points this run evaluated.

        Journal-rehydrated points did no modeling work in this run and
        are excluded.  Empty when the cache was disabled throughout.
        """
        totals = _Totals()
        for record in self.records:
            if not record.from_journal:
                totals.add(record.cache)
        return totals.counters

    def summary(self) -> str:
        ok = sum(1 for r in self.records if r.status == "ok")
        degraded = len(self.degraded)
        failed = len(self.failures)
        resumed = sum(1 for r in self.records if r.from_journal)
        text = (
            f"{len(self.records)} points: {ok} ok, "
            f"{degraded} degraded, {failed} failed"
        )
        if resumed:
            text += f" ({resumed} from journal)"
        if self.cancelled:
            text += " [cancelled]"
        return text


@dataclass(frozen=True)
class _Task:
    index: int
    point: DesignPoint
    attempt: int = 1
    degraded: bool = False
    first_failure: Optional[PointFailure] = None
    #: Why the vector path handed this task to the scalar path (estimator
    #: fallback taxonomy); threaded into the final record and journal row.
    fallback: Optional[str] = None


def _mp_context() -> mp.context.BaseContext:
    """Fork when available (Linux): workers inherit graphs and patches."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


@dataclass(frozen=True)
class PoolJobConfig:
    """Everything a pool worker needs to evaluate tasks.

    Baked into the worker process at fork time (inherited, not pickled),
    so a :class:`WorkerPool` lease with a *different* config retires the
    warm workers and respawns them against the new one.  Long-lived
    callers should therefore reuse one config object per distinct
    workload recipe to keep workers warm across requests.
    """

    workloads: Sequence[tuple[str, Graph]] = ()
    batches: Sequence[object] = ()
    ctx: Optional[ModelContext] = None
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS
    validate: bool = True


def _run_attempt(task: _Task, config: PoolJobConfig) -> DesignPointResult:
    """One evaluation attempt; degraded attempts drop the workload recipe."""
    use_workloads = () if task.degraded else config.workloads
    use_batches = () if task.degraded else config.batches
    result = evaluate_point(
        task.point, use_workloads, use_batches, config.ctx,
        config.latency_slo_ms,
    )
    if config.validate:
        validate_result(result)
    return result


def _evaluate_one(
    conn: Connection, task: _Task, config: PoolJobConfig
) -> None:
    """Evaluate one task inside a worker; ship the outcome over the pipe.

    The message is ``("result", index, result, failure, error, wall
    time, cache delta)``: a result row, or the attempt's
    :class:`PointFailure` built here, as an inline run builds it, with
    the original exception for a strict parent (``None`` when it does
    not pickle).  A result that does not pickle is reported as a
    ``collect`` failure.
    """
    start = time.perf_counter()
    stats_before = get_estimate_cache().stats.snapshot()
    result: Optional[DesignPointResult] = None
    error: Optional[Exception] = None
    try:
        result = _run_attempt(task, config)
    except Exception as raised:
        error = raised
    elapsed = time.perf_counter() - start
    cache_delta = get_estimate_cache().stats.delta_since(stats_before)
    failure = None if error is None else PointFailure.from_error(
        task.point, error, wall_time_s=elapsed,
        attempt=task.attempt, degraded=task.degraded,
    )
    try:
        conn.send(("result", task.index, result, failure, error, elapsed,
                   cache_delta))
        return
    except Exception as send_error:
        # The result or the exception did not pickle: send the failure
        # alone rather than die silently and be misread as a crash.
        failure = failure or PointFailure(
            point=task.point,
            stage="collect",
            error_type=type(send_error).__name__,
            message=(
                f"result could not be returned from the worker: {send_error}"
            ),
            wall_time_s=elapsed,
            attempt=task.attempt,
            degraded=task.degraded,
        )
    conn.send(("result", task.index, None, failure, None, elapsed,
               cache_delta))


def _arm_parent_death_signal() -> None:
    """Best-effort ``PR_SET_PDEATHSIG``: die when the parent does.

    An idle worker already exits on pipe EOF, but a worker buried in a
    long evaluation would outlive a parent killed by an uncatchable
    signal.  On Linux the kernel delivers SIGKILL to the worker the
    moment its parent dies, so a SIGKILLed sweep leaves no orphan
    processes; elsewhere this quietly does nothing.
    """
    try:
        import ctypes
        import signal as _signal

        libc = ctypes.CDLL(None, use_errno=True)
        pr_set_pdeathsig = 1
        libc.prctl(pr_set_pdeathsig, int(_signal.SIGKILL))
    except Exception:
        return  # non-Linux or locked-down libc: orphan cleanup degrades


def _pool_worker_main(conn: Connection, config: PoolJobConfig) -> None:
    """Persistent forked worker: evaluate chunks of tasks until stopped.

    The worker stays warm between chunks — module imports, the estimate
    cache, and any per-``(X, N)`` substrate entries inherited at fork time
    are reused across every point it evaluates.  Each task's outcome is
    shipped as its own ``("result", ...)`` message so the parent can track
    per-point timeouts; a ``("done",)`` marker closes each chunk.
    """
    _arm_parent_death_signal()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or message[0] != "chunk":
                break
            for task in message[1]:
                _evaluate_one(conn, task, config)
            conn.send(("done",))
    except (BrokenPipeError, EOFError, OSError):
        pass  # parent went away; nothing left to report to
    finally:
        conn.close()


@dataclass
class _PoolWorker:
    """Parent-side state of one persistent worker process."""

    proc: mp.process.BaseProcess
    conn: Connection
    #: Tasks of the current chunk still awaiting a result message; the
    #: head of the deque is the point the worker is evaluating right now.
    pending: deque = field(default_factory=deque)
    #: When the in-flight point started (chunk dispatch or last result).
    started: float = 0.0
    #: True while a chunk is outstanding (before its ``done`` marker).
    busy: bool = False


class WorkerPool:
    """A persistent pool of forked evaluation workers, reusable across runs.

    ``run_sweep`` historically forked workers per invocation and tore
    them down at the end — correct for a batch CLI, wasteful for a
    long-running service paying fork/import/cache-warmup per request.
    A ``WorkerPool`` owns that worker lifecycle instead: create one,
    pass it to any number of ``run_sweep(..., pool=...)`` calls, and the
    forked processes (with their warm estimate caches) survive between
    calls.  Leases are serialized under a lock, so concurrent callers
    queue rather than interleave chunks.

    Workers are forked lazily against the :class:`PoolJobConfig` of the
    current lease; a lease with a *different* config (compared by value;
    workload graphs compare by identity) retires the warm workers — their
    forked-in recipe no longer matches — and respawns on demand.  Reuse
    the same workload/context objects per distinct recipe to stay warm.
    """

    def __init__(
        self,
        jobs: int,
        mp_context: Optional[mp.context.BaseContext] = None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._mp_ctx = mp_context if mp_context is not None else _mp_context()
        self._lock = threading.Lock()
        self._workers: list[_PoolWorker] = []
        self._config: Optional[PoolJobConfig] = None
        self._closed = False
        #: Total processes forked over the pool's lifetime (observability).
        self.spawned_total = 0

    # -- introspection -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def workers(self) -> list[_PoolWorker]:
        return self._workers

    def worker_pids(self) -> list[int]:
        """PIDs of the currently live worker processes."""
        return [
            w.proc.pid
            for w in self._workers
            if w.proc.pid is not None and w.proc.is_alive()
        ]

    # -- lease lifecycle -----------------------------------------------------

    @contextmanager
    def lease(self, config: PoolJobConfig) -> Iterator["WorkerPool"]:
        """Exclusive use of the pool for one run, under ``config``.

        On exit, workers that finished cleanly stay warm for the next
        lease; workers left busy (an exception or abort escaped the run
        loop mid-chunk) are in an unknown protocol state and are killed.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
            if self._config is not None and config != self._config:
                self._retire_all()
            self._config = config
            try:
                yield self
            finally:
                for worker in list(self._workers):
                    if worker.busy or not worker.proc.is_alive():
                        self.discard(worker, kill=True)

    def spawn_worker(self) -> _PoolWorker:
        """Fork one worker against the current lease config."""
        if self._config is None:
            raise ConfigurationError("spawn_worker() outside a lease")
        parent, child = self._mp_ctx.Pipe(duplex=True)
        proc = self._mp_ctx.Process(
            target=_pool_worker_main,
            args=(child, self._config),
            daemon=True,
        )
        proc.start()
        child.close()
        worker = _PoolWorker(proc=proc, conn=parent)
        self._workers.append(worker)
        self.spawned_total += 1
        return worker

    def discard(self, worker: _PoolWorker, kill: bool = False) -> None:
        """Remove one worker from the pool, reaping the process.

        ``kill=True`` forces an immediate kill (crashed, timed out, or
        mid-chunk at abort); otherwise an idle worker is asked to stop
        via the pipe protocol first.
        """
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.proc.is_alive():
            if kill or worker.busy:
                worker.proc.kill()
            else:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    worker.proc.kill()
        worker.proc.join(_JOIN_GRACE_S)
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
            worker.proc.join(_JOIN_GRACE_S)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _retire_all(self) -> None:
        for worker in list(self._workers):
            self.discard(worker)

    def close(self) -> None:
        """Tear down every worker; the pool cannot be leased again."""
        with self._lock:
            self._closed = True
            self._retire_all()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _SweepRun:
    """State of one engine invocation (scheduling, retries, journal)."""

    def __init__(
        self,
        points: Sequence[DesignPoint],
        workloads: Sequence[tuple[str, Graph]],
        batches: Sequence[object],
        ctx: Optional[ModelContext],
        timeout_s: Optional[float],
        strict: bool,
        retry_degraded: bool,
        validate: bool,
        journal: Optional[Journal],
        latency_slo_ms: float,
        on_record: Optional[Callable[[PointRecord], None]],
        chunk_size: Optional[int] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ):
        self.points = list(points)
        self.workloads = tuple(workloads)
        self.batches = tuple(batches)
        self.ctx = ctx
        self.timeout_s = timeout_s
        self.chunk_size = chunk_size
        self.strict = strict
        self.retry_degraded = retry_degraded and not strict
        self.validate = validate
        self.journal = journal
        self.latency_slo_ms = latency_slo_ms
        self.on_record = on_record
        self.should_abort = should_abort
        self.cancelled = False
        self.config = PoolJobConfig(
            workloads=self.workloads,
            batches=self.batches,
            ctx=ctx,
            latency_slo_ms=latency_slo_ms,
            validate=validate,
        )
        self.records: dict[int, PointRecord] = {}
        #: Finalized records awaiting their batch's commit, while
        #: :meth:`_one_commit` holds them; ``None`` commits each alone.
        self._held: Optional[list[PointRecord]] = None

    def _aborted(self) -> bool:
        """Poll the cancellation hook once; latch the cancelled flag."""
        if self.should_abort is not None and self.should_abort():
            self.cancelled = True
        return self.cancelled

    # -- record bookkeeping ---------------------------------------------------

    def _finalize(self, task: _Task, record: PointRecord) -> None:
        self.records[task.index] = record
        if self._held is not None:
            self._held.append(record)
        else:
            self._commit((record,))

    def _commit(self, records: Sequence[PointRecord]) -> None:
        """Journal ``records`` in one commit, then report each one."""
        if self.journal is not None:
            self.journal.append(*(
                record.journal_entry()
                for record in records
                if not record.from_journal
            ))
        if self.on_record is not None:
            for record in records:
                self.on_record(record)

    @contextmanager
    def _one_commit(self) -> Iterator[None]:
        """Hold the records finalized inside the block and commit them
        together on the way out, an error's way included, so a strict
        raise mid-batch still journals the rows finalized before it."""
        self._held = []
        try:
            yield
        finally:
            held, self._held = self._held, None
            self._commit(held)

    def _success(
        self,
        task: _Task,
        result: DesignPointResult,
        wall_time_s: float,
        cache: Optional[dict] = None,
    ) -> None:
        status = "degraded" if task.degraded else "ok"
        self._finalize(
            task,
            PointRecord(
                point=task.point,
                status=status,
                result=result,
                failure=task.first_failure,
                wall_time_s=wall_time_s,
                attempt=task.attempt,
                cache=cache,
                fallback=task.fallback,
            ),
        )

    def _failure(
        self,
        task: _Task,
        failure: PointFailure,
        cache: Optional[dict] = None,
    ) -> Optional[_Task]:
        """Handle one failed attempt; return the retry task if any."""
        can_degrade = (
            self.retry_degraded
            and not task.degraded
            and bool(self.workloads or self.batches)
        )
        if can_degrade:
            return _Task(
                index=task.index,
                point=task.point,
                attempt=task.attempt + 1,
                degraded=True,
                first_failure=failure,
                fallback=task.fallback,
            )
        final = task.first_failure if task.first_failure else failure
        self._finalize(
            task,
            PointRecord(
                point=task.point,
                status="failed",
                failure=final,
                wall_time_s=failure.wall_time_s,
                attempt=task.attempt,
                cache=cache,
                fallback=task.fallback,
            ),
        )
        return None

    # -- inline execution -----------------------------------------------------

    def run_inline(self, tasks: deque[_Task]) -> None:
        while tasks:
            if self._aborted():
                return
            task = tasks.popleft()
            start = time.perf_counter()
            stats_before = get_estimate_cache().stats.snapshot()
            try:
                result = _run_attempt(task, self.config)
            except Exception as error:
                if self.strict:
                    raise
                retry = self._failure(
                    task,
                    PointFailure.from_error(
                        task.point,
                        error,
                        wall_time_s=time.perf_counter() - start,
                        attempt=task.attempt,
                        degraded=task.degraded,
                    ),
                    cache=get_estimate_cache().stats.delta_since(
                        stats_before
                    ),
                )
                if retry is not None:
                    tasks.appendleft(retry)
                continue
            self._success(
                task,
                result,
                time.perf_counter() - start,
                cache=get_estimate_cache().stats.delta_since(stats_before),
            )

    # -- vectorized execution -------------------------------------------------

    def run_vector(self, tasks: deque[_Task], mode: str) -> deque[_Task]:
        """Evaluate points through the batch kernels.

        Returns the tasks the vector path could not finish — failed
        builds, points the model rejects, and SRAM-search-infeasible
        points — for the scalar path, so ``auto`` sweeps produce exactly
        the records a scalar sweep would (including authentic per-point
        failures).  Every handed-back task carries its fallback reason,
        which lands in the final record and journal row.  A row that
        fails the numeric screen, or the result guardrails
        (``validate_result``), is a screen failure.  With ``mode ==
        "vector"``, a screen failure is recorded (or raised, under
        ``strict``) instead of falling back; the other fallbacks take
        the scalar path in both modes, because only it raises the
        authentic model error.  The batch's records are journaled in
        one commit once the batch is scored.
        """
        from dataclasses import replace

        from repro.batch.estimator import SCREEN_FAILED, BatchEstimator

        ordered = list(tasks)
        estimator = BatchEstimator(self.ctx)
        start = time.perf_counter()
        batch = estimator.estimate_points(
            [t.point for t in ordered],
            workloads=self.workloads,
            batches=self.batches,
            latency_slo_ms=self.latency_slo_ms,
        )
        share = (time.perf_counter() - start) / max(len(ordered), 1)
        remaining: deque[_Task] = deque()
        with self._one_commit():
            for offset, (task, summary) in enumerate(
                zip(ordered, batch.summaries)
            ):
                reason = batch.fallback_reasons.get(offset)
                error: Optional[NumericalError] = None
                if summary is not None:
                    try:
                        if self.validate:
                            validate_result(summary)
                    except NumericalError as raised:
                        reason, error = SCREEN_FAILED, raised
                    else:
                        self._success(task, summary, share)
                        continue
                elif reason == SCREEN_FAILED:
                    error = NumericalError(
                        f"batch[{offset}]",
                        float("nan"),
                        "batched output failed the numeric screen",
                    )
                tagged = replace(task, fallback=reason)
                if mode != "vector" or error is None:
                    remaining.append(tagged)
                    continue
                if self.strict:
                    raise error
                retry = self._failure(
                    tagged,
                    PointFailure.from_error(
                        tagged.point,
                        error,
                        attempt=tagged.attempt,
                        degraded=tagged.degraded,
                    ),
                )
                if retry is not None:
                    remaining.append(retry)
        return remaining

    # -- forked execution (persistent chunked worker pool) --------------------

    def run_forked(self, tasks: deque[_Task], pool: WorkerPool) -> None:
        """Drain ``tasks`` through a pool of persistent forked workers.

        Workers are forked once and fed *chunks* of tasks over duplex
        pipes, so each process amortizes its fork/import cost over many
        points and keeps its estimate cache warm across them.  Per-point
        semantics are preserved: every task reports its own result
        message, the per-point timeout clock restarts as each result
        arrives, and a killed or crashed worker fails only the in-flight
        point — the rest of its chunk is requeued for the survivors.

        When the ``should_abort`` hook fires, dispatch stops, busy
        workers are killed mid-chunk, and the unfinished tasks are left
        unrecorded — the journal then holds exactly the finished points,
        so a resumed run re-queues the remainder.
        """
        chunk = self.chunk_size
        if chunk is None:
            chunk = derive_chunk_size(len(tasks), pool.jobs)
        while True:
            if self._aborted():
                for worker in list(pool.workers):
                    if worker.busy:
                        pool.discard(worker, kill=True)
                return
            for worker in pool.workers:
                if not worker.busy and tasks:
                    self._dispatch_chunk(worker, tasks, chunk)
            while tasks and len(pool.workers) < pool.jobs:
                self._dispatch_chunk(pool.spawn_worker(), tasks, chunk)
            busy = [w for w in pool.workers if w.busy]
            if not busy:
                return
            ready = _wait_connections(
                [w.conn for w in busy],
                timeout=self._poll_timeout(busy),
            )
            by_conn = {w.conn: w for w in pool.workers}
            for conn in ready:
                worker = by_conn[conn]
                if not self._pool_receive(worker, tasks):
                    pool.discard(worker, kill=True)
            for worker in self._expired(pool.workers):
                self._kill_timed_out(worker, tasks)
                pool.discard(worker, kill=True)

    def _dispatch_chunk(
        self, worker: _PoolWorker, tasks: deque[_Task], chunk: int
    ) -> None:
        batch = [tasks.popleft() for _ in range(min(chunk, len(tasks)))]
        worker.pending = deque(batch)
        worker.started = time.monotonic()
        worker.busy = True
        try:
            worker.conn.send(("chunk", batch))
        except (BrokenPipeError, OSError):
            pass  # dead worker; the poll loop reaps it as a crash

    def _poll_timeout(
        self, busy: Sequence[_PoolWorker]
    ) -> Optional[float]:
        abort_cap = _ABORT_POLL_S if self.should_abort is not None else None
        if self.timeout_s is None:
            return abort_cap
        tracked = [w.started for w in busy if w.pending]
        if not tracked:
            return abort_cap
        next_deadline = min(tracked) + self.timeout_s
        remaining = max(0.0, next_deadline - time.monotonic()) + 0.02
        if abort_cap is not None:
            return min(remaining, abort_cap)
        return remaining

    def _expired(
        self, workers: Sequence[_PoolWorker]
    ) -> list[_PoolWorker]:
        if self.timeout_s is None:
            return []
        now = time.monotonic()
        return [
            w
            for w in workers
            if w.busy and w.pending and now - w.started > self.timeout_s
        ]

    def _pool_receive(
        self, worker: _PoolWorker, tasks: deque[_Task]
    ) -> bool:
        """Handle one message from a worker; False when the worker died."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return self._pool_crash(worker, tasks)
        if message[0] == "done":
            worker.pending.clear()
            worker.busy = False
            return True
        _kind, index, result, failure, error, wall_time_s, cache_delta = (
            message
        )
        if not worker.pending or worker.pending[0].index != index:
            # Protocol desync (should not happen); drop the worker.
            return self._pool_crash(worker, tasks)
        task = worker.pending.popleft()
        worker.started = time.monotonic()  # next point's clock starts now
        if failure is None:
            self._success(task, result, wall_time_s, cache=cache_delta)
            return True
        if self.strict:
            if error is not None:
                raise error
            raise NeuroMeterError(failure.describe())
        retry = self._failure(task, failure, cache=cache_delta)
        if retry is not None:
            tasks.append(retry)
        return True

    def _pool_crash(
        self, worker: _PoolWorker, tasks: deque[_Task]
    ) -> bool:
        """Fail the in-flight point of a dead worker; requeue the rest."""
        worker.proc.join(_JOIN_GRACE_S)
        pending = worker.pending
        worker.pending = deque()
        worker.busy = False
        if pending:
            task = pending.popleft()
            tasks.extend(pending)  # rerun the rest of the chunk elsewhere
            failure = PointFailure(
                point=task.point,
                stage="evaluate",
                error_type="WorkerCrash",
                message=(
                    "worker died without reporting "
                    f"(exit code {worker.proc.exitcode})"
                ),
                attempt=task.attempt,
                degraded=task.degraded,
            )
            if self.strict:
                raise NeuroMeterError(failure.describe()) from None
            retry = self._failure(task, failure)
            if retry is not None:
                tasks.append(retry)
        return False

    def _kill_timed_out(
        self, worker: _PoolWorker, tasks: deque[_Task]
    ) -> None:
        elapsed_s = time.monotonic() - worker.started
        pending = worker.pending
        worker.pending = deque()
        worker.busy = False
        task = pending.popleft()
        tasks.extend(pending)  # only the in-flight point timed out
        failure = PointFailure(
            point=task.point,
            stage="timeout",
            error_type="PointTimeoutError",
            message=(
                f"evaluation exceeded the {self.timeout_s:g} s "
                f"per-point timeout (killed after {elapsed_s:.1f} s)"
            ),
            wall_time_s=elapsed_s,
            attempt=task.attempt,
            degraded=task.degraded,
        )
        if self.strict:
            raise PointTimeoutError(failure.describe())
        retry = self._failure(task, failure)
        if retry is not None:
            tasks.append(retry)


def run_sweep(
    points: Sequence[DesignPoint],
    workloads: Sequence[tuple[str, Graph]] = (),
    batches: Iterable[object] = (),
    ctx: Optional[ModelContext] = None,
    *,
    backend: str = "scalar",
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    chunk_size: Optional[int] = None,
    strict: bool = False,
    retry_degraded: bool = True,
    validate: bool = True,
    journal_path: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    journal_meta: Optional[dict] = None,
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
    on_record: Optional[Callable[[PointRecord], None]] = None,
    warm_cache: bool = True,
    pool: Optional[WorkerPool] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> SweepReport:
    """Evaluate design points with fault isolation, retries, and resume.

    Args:
        points: Design tuples to evaluate (order is preserved in the
            report).
        workloads: (name, graph) pairs to simulate per point.
        batches: Batch specs (ints or ``"latency-bound"``).
        ctx: Modeling context (Table I's by default).
        backend: ``"scalar"`` evaluates every point through the object
            model; ``"vector"`` evaluates the sweep — peak metrics and
            workload simulation alike — through the NumPy batch kernels
            (:mod:`repro.batch`) and rejects unsupported configurations;
            ``"auto"`` uses the vector path for supported points and
            transparently falls back to the scalar path per point
            otherwise, tagging each fallback with its reason.
        jobs: Worker processes.  ``jobs == 1`` with no timeout runs
            inline in this process; otherwise points run in a pool of
            persistent forked workers fed with chunks of points.
        timeout_s: Per-point wall-clock budget.  A point still running at
            the deadline is killed and recorded as a ``timeout`` failure;
            the remainder of its chunk is requeued, not failed.
        chunk_size: Points dispatched to a pool worker at a time.
            Defaults to ``ceil(points / (4 * jobs))`` so each worker gets
            roughly four chunks per sweep.
        strict: Re-raise the first failure instead of recording it (the
            legacy ``sweep()`` contract).  Disables retries.
        retry_degraded: Retry a failed point once with the workload
            recipe dropped, salvaging the peak-only row (status
            ``degraded``).
        validate: Run the result guardrails
            (:func:`repro.integrity.validate_result`) on every
            accepted result.
        journal_path: JSONL checkpoint file; every finished point is
            appended under a header stamped with the sweep's
            :func:`~repro.dse.journal.recipe_digest`, one fsynced commit
            per batch (a vector batch's rows together, any other point
            alone): at most the batch in flight is lost to a crash.
        resume: Skip points already finished in ``journal_path`` and
            rehydrate their journaled metrics; the journal's stamps must
            match this run's.
        journal_meta: Extra dict folded into a *newly created* journal's
            header line (``optimize_design`` stamps the grid's
            :func:`~repro.dse.journal.sweep_digest`, a surrogate search
            its search digest).
        latency_slo_ms: SLO for ``"latency-bound"`` batch specs.
        on_record: Progress callback invoked with each final
            :class:`PointRecord`, once the record is journaled.
        warm_cache: Before forking workers, pre-seed the estimate cache
            with each unique per-core substrate
            (:func:`warm_substrate_cache`) so workers inherit it by
            copy-on-write.  A no-op when the cache is disabled or the run
            is inline (inline runs warm the cache as they go).
        pool: A caller-owned :class:`WorkerPool` to run forked points on.
            The pool's workers stay warm after the call (the caller owns
            ``close()``); without one, a pool of ``jobs`` workers is
            created and torn down inside this call.  Forces the forked
            path even with ``jobs == 1`` and no timeout.
        should_abort: Cooperative cancellation hook, polled between
            points (at least every ~0.25 s on the forked path).  When it
            returns true the run stops admitting work, kills in-flight
            workers, and returns the partial report with
            ``cancelled=True``; journaled points are never lost.

    Returns:
        A :class:`SweepReport` with one record per input point (only the
        finished subset when cancelled).

    Raises:
        ConfigurationError: invalid engine options, or a resumed journal
            stamped with another recipe or digest.
        NeuroMeterError: the first point failure, when ``strict=True``.
    """
    if backend not in ("scalar", "vector", "auto"):
        raise ConfigurationError(
            f"backend must be 'scalar', 'vector', or 'auto', got {backend!r}"
        )
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(
            f"timeout_s must be positive, got {timeout_s}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    if resume and journal_path is None:
        raise ConfigurationError("resume=True requires a journal_path")

    points = list(points)
    workloads = tuple(workloads)
    batches = tuple(batches)
    journal: Optional[Journal] = None
    if journal_path is not None:
        recipe = recipe_digest(workloads, batches, ctx, latency_slo_ms)
        journal = Journal(
            journal_path,
            resume=resume,
            meta={**(journal_meta or {}), "recipe": recipe},
        )

    run = _SweepRun(
        points=points,
        workloads=workloads,
        batches=batches,
        ctx=ctx,
        timeout_s=timeout_s,
        strict=strict,
        retry_degraded=retry_degraded,
        validate=validate,
        journal=journal,
        latency_slo_ms=latency_slo_ms,
        on_record=on_record,
        chunk_size=chunk_size,
        should_abort=should_abort,
    )

    try:
        tasks: deque[_Task] = deque()
        journaled: dict[DesignPoint, JournalEntry] = {}
        if journal is not None and resume:
            for entry in journal.entries:
                journaled[entry.point] = entry  # last record wins
        for index, point in enumerate(points):
            entry = journaled.get(point)
            if entry is not None:
                record = record_from_journal_entry(entry)
                run.records[index] = record
                if on_record is not None:
                    on_record(record)
                continue
            tasks.append(_Task(index=index, point=point))

        if tasks and backend != "scalar":
            tasks = run.run_vector(tasks, backend)

        if pool is not None or jobs > 1 or timeout_s is not None:
            if warm_cache and tasks:
                warm_substrate_cache([t.point for t in tasks], ctx)
            owned = pool if pool is not None else WorkerPool(jobs)
            try:
                with owned.lease(run.config) as leased:
                    run.run_forked(tasks, leased)
            finally:
                if pool is None:
                    owned.close()
        else:
            run.run_inline(tasks)
    finally:
        if journal is not None:
            journal.close()

    return SweepReport(
        records=tuple(
            run.records[index] for index in sorted(run.records)
        ),
        cancelled=run.cancelled,
    )
