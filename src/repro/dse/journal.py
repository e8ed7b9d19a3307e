"""JSONL checkpoint journal for long design-space sweeps.

A 200-point sweep that dies at point 173 should not cost 172 evaluations.
The engine writes one self-contained JSON line per *finished* point —
success, degraded success, or structured failure — and commits each
batch of finished points (a vector batch's rows together, any other
point alone) with one write, flush and fsync: one commit per batch, so
a SIGKILL loses at most the batch in flight.  On ``resume`` the
journal is read back, finished points are skipped, and their metrics are
rehydrated by :func:`result_from_metrics` into the same
:class:`~repro.dse.sweep.DesignPointResult` rows a fresh evaluation
gives (minus the estimate tree, which is not serialized).
:func:`summarize_result` is a row's one JSON form, for journals and the
daemon's wire alike.

Journal format (one JSON object per line)::

    {"kind": "header", "version": 1, "meta": {"recipe": "3f9c0a17d2b4e815"}}
    {"kind": "point", "point": [64, 2, 2, 4], "status": "ok",
     "attempt": 1, "wall_time_s": 1.8, "metrics": {...}, "failure": null}
    {"kind": "point", "point": [4, 4, 8, 16], "status": "failed",
     "attempt": 2, "wall_time_s": 0.2, "metrics": null,
     "failure": {"stage": "simulate", "error_type": "MappingError",
                 "message": "...", "degraded": true}}

``status`` is ``ok`` (full evaluation), ``degraded`` (peak-only metrics
after a retry), or ``failed`` (both attempts exhausted).

The header's ``meta`` carries the journal's stamps (:data:`STAMPS`),
which every reader checks through :func:`check_stamps`; the fsynced
append discipline is :class:`AppendLog`, shared with the request log.
"""

from __future__ import annotations

import io
import json
import os
import threading
import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.arch.component import ModelContext
from repro.cache.keys import short_hash
from repro.config.presets import datacenter_context
from repro.dse.space import DesignPoint
from repro.dse.sweep import DesignPointResult, WorkloadOutcome
from repro.errors import ConfigurationError
from repro.perf.graph import Graph
from repro.perf.optimizations import OptimizationConfig
from repro.perf.simulator import DEFAULT_LATENCY_SLO_MS, GraphSpec

JOURNAL_VERSION = 1

#: Final statuses a journaled point can carry.
STATUSES = ("ok", "degraded", "failed")

#: Header ``meta`` keys that decide whether a journal's rows answer a
#: caller.  A resume, a shard worker and a shard merge refuse a journal
#: whose header holds one of these with another value.  Other meta keys
#: (a shard count, a search's seed) only describe the file: a
#: re-partitioned sweep still resumes its earlier shards.
STAMPS = ("recipe", "sweep_digest", "search_digest", "shard")


def recipe_digest(
    workloads: Sequence[tuple[str, Any]] = (),
    batches: Sequence[object] = (),
    ctx: Optional[ModelContext] = None,
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
) -> str:
    """Version-salted digest of what a sweep row depends on besides its
    point: context (``None`` is Table I's), workload names and content,
    batches and SLO — not backend, jobs, timeouts or retries.  A graph
    stands in by its memoized spec digest (canonicalization skips its
    layers); other workload objects are hashed as they are.
    """
    opt = OptimizationConfig.all_on()
    contents = [
        (name, GraphSpec.of(graph, opt).digest
         if isinstance(graph, Graph) else graph)
        for name, graph in workloads
    ]
    ctx = ctx if ctx is not None else datacenter_context()
    return short_hash(
        "recipe", ctx, contents, list(batches), float(latency_slo_ms)
    )


def check_stamps(
    path: str | os.PathLike,
    stamps: dict,
    required: Sequence[str] = (),
) -> dict:
    """Refuse a journal whose header stamps disagree with the caller's.

    Every :data:`STAMPS` key in both ``stamps`` and the header's meta
    must be equal.  A key the header lacks passes (older journals still
    resume) unless it is ``required``; a missing or empty file passes.
    Returns the header's meta.

    Raises:
        ConfigurationError: naming the journal and the stamp.
    """
    path = os.fspath(path)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return {}
    meta = (journal_header(path) or {}).get("meta") or {}
    for key in [k for k in STAMPS if k in stamps]:
        label = key.replace("_", " ")
        found = meta.get(key)
        if found is None:
            if key in required:
                raise ConfigurationError(
                    f"journal {path} has no {label} in its header; it "
                    "cannot be verified against this run"
                )
        elif found != stamps[key]:
            raise ConfigurationError(
                f"journal {path} was written for {label} {found}, not "
                f"{stamps[key]}; resume it with the recipe it was "
                "written for, or use a fresh journal path"
            )
    return meta


def summarize_result(result: DesignPointResult) -> dict:
    """Flatten a result row into its JSON form, the metrics dict.

    The one serialized form of a row, for journals and the wire: chip
    numbers, peak efficiencies, and per-outcome runtime metrics, without
    the estimate tree.  :func:`result_from_metrics` inverts it.
    """
    return {
        "area_mm2": result.area_mm2,
        "tdp_w": result.tdp_w,
        "peak_tops": result.peak_tops,
        "peak_tops_per_watt": result.peak_tops_per_watt,
        "peak_tops_per_tco": result.peak_tops_per_tco,
        "outcomes": [
            {
                "workload": o.workload,
                "batch": o.batch,
                "regime": o.regime,
                "achieved_tops": o.achieved_tops,
                "utilization": o.utilization,
                "runtime_power_w": o.runtime_power_w,
                "latency_ms": o.latency_ms,
            }
            for o in result.outcomes
        ],
    }


def result_from_metrics(
    point: DesignPoint, metrics: dict
) -> DesignPointResult:
    """Rebuild a result row from its :func:`summarize_result` form.

    The inverse of :func:`summarize_result`: a row this program wrote
    comes back equal field for field, without its estimate tree.  An
    outcome written before ``latency_ms`` was recorded comes back with
    ``None``.
    """
    return DesignPointResult(
        point=point,
        area_mm2=metrics["area_mm2"],
        tdp_w=metrics["tdp_w"],
        peak_tops=metrics["peak_tops"],
        outcomes=tuple(
            WorkloadOutcome(
                workload=o["workload"],
                batch=o["batch"],
                regime=o["regime"],
                achieved_tops=o["achieved_tops"],
                utilization=o["utilization"],
                runtime_power_w=o["runtime_power_w"],
                latency_ms=o.get("latency_ms"),
            )
            for o in metrics.get("outcomes", ())
        ),
    )


@dataclass(frozen=True)
class JournalEntry:
    """One finished design point as recorded in the journal."""

    point: DesignPoint
    status: str
    attempt: int = 1
    wall_time_s: float = 0.0
    metrics: Optional[dict] = None
    failure: Optional[dict] = None
    cache: Optional[dict] = None
    #: vector-backend fallback reason for this point (``None`` when the
    #: point was vectorized or the sweep ran the scalar backend outright).
    fallback: Optional[str] = None
    #: Provenance of the metrics.  The sweep engine stamps ``"exact"`` on
    #: every row it writes — the analytical model produced the numbers —
    #: so downstream consumers (reports, surrogate training) can assert
    #: that no predicted-only row ever entered a journal.  ``None`` on
    #: rows written before the field existed.
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ConfigurationError(
                f"journal status must be one of {STATUSES}, "
                f"got {self.status!r}"
            )

    def to_json(self) -> str:
        payload = {
            "kind": "point",
            "point": [self.point.x, self.point.n, self.point.tx,
                      self.point.ty],
            "status": self.status,
            "attempt": self.attempt,
            "wall_time_s": round(self.wall_time_s, 6),
            "metrics": self.metrics,
            "failure": self.failure,
            "cache": self.cache,
            "fallback": self.fallback,
        }
        if self.source is not None:
            payload["source"] = self.source
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> Optional["JournalEntry"]:
        """Build an entry from a decoded JSON object.

        Returns ``None`` for non-point kinds (headers, future extensions);
        raises for point payloads whose fields are malformed.

        Raises:
            KeyError, TypeError, ValueError, ConfigurationError: the
                payload is a point record but cannot be rebuilt.
        """
        if not isinstance(payload, dict) or payload.get("kind") != "point":
            return None
        x, n, tx, ty = payload["point"]
        return cls(
            point=DesignPoint(int(x), int(n), int(tx), int(ty)),
            status=payload["status"],
            attempt=int(payload.get("attempt", 1)),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            metrics=payload.get("metrics"),
            failure=payload.get("failure"),
            cache=payload.get("cache"),
            fallback=payload.get("fallback"),
            source=payload.get("source"),
        )

    def summary_result(self) -> Optional[DesignPointResult]:
        """Rehydrate the metrics into a result row (``None`` if failed)."""
        if self.metrics is None:
            return None
        return result_from_metrics(self.point, self.metrics)


class AppendLog:
    """An fsynced JSONL append log, the discipline both logs share.

    Opening creates the directory, cuts a torn tail with the log's own
    line validator, so the next record never lands on a partial line
    (or truncates the file when ``fresh``), and writes ``header`` once
    into an empty file.  Each commit — one line or a batch of them — is
    then one write + flush + fsync under a lock, so concurrent writers
    never interleave and the lines are on disk before their writer
    returns; a crash mid-commit leaves a whole-line prefix of the batch
    and at most one torn line, which the next opening cuts.
    ``appended`` counts the lines written since opening, header
    excluded.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        header: dict,
        is_damaged: Callable[[bytes], bool],
        fresh: bool = False,
    ):
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.repaired_lines = 0
        if not fresh and os.path.exists(self.path):
            self.repaired_lines = repair_tail(self.path, is_damaged)
        self._lock = threading.Lock()
        self._fh: Optional[io.TextIOBase] = open(
            self.path, "w" if fresh else "a", encoding="utf-8"
        )
        self.appended = 0
        if os.path.getsize(self.path) == 0:
            self._commit((json.dumps(header, sort_keys=True),))

    def _commit(self, lines: Sequence[str]) -> None:
        assert self._fh is not None
        self._fh.write("".join(line + "\n" for line in lines))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _append(self, *lines: str) -> None:
        """Commit ``lines`` together; no lines, no commit."""
        if not lines:
            return
        with self._lock:
            if self._fh is None:
                raise ConfigurationError(f"log {self.path} is closed")
            self._commit(lines)
            self.appended += len(lines)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Journal(AppendLog):
    """The sweep checkpoint: one line per finished point, one fsynced
    commit per batch of them.

    ``meta`` is a JSON-serializable dict folded into a new journal's
    header under ``"meta"``; its :data:`STAMPS` keys are the journal's
    provenance.  A fresh journal truncates the file.  A resumed one
    keeps its header, is refused through :func:`check_stamps` when a
    stamp in ``meta`` disagrees with it, and loads its finished points
    into ``entries``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        resume: bool = False,
        meta: Optional[dict] = None,
    ):
        self.entries: list[JournalEntry] = []
        if resume:
            check_stamps(path, meta or {})
            if os.path.exists(path):
                self.entries = load_journal(path)
        header: dict = {"kind": "header", "version": JOURNAL_VERSION}
        if meta:
            header["meta"] = meta
        super().__init__(path, header, _line_is_damaged, fresh=not resume)

    def append(self, *entries: JournalEntry) -> None:
        """Record finished points in order, in one fsynced commit."""
        self._append(*(entry.to_json() for entry in entries))
        self.entries.extend(entries)

    def finished_points(self) -> set[DesignPoint]:
        """Points with a final record (ok, degraded, *or* failed)."""
        return {entry.point for entry in self.entries}


def load_journal(
    path: str | os.PathLike, salvage: bool = False
) -> list[JournalEntry]:
    """Read every valid point entry from a journal file.

    A crash mid-write damages only the *tail* of the file — usually one
    truncated line, but a process killed while flushing a buffered
    multi-line write can tear several trailing lines at once.  Any
    contiguous run of damaged lines at the end of the file is therefore
    discarded with a single :class:`RuntimeWarning`, and the resume
    proceeds minus only the work in flight.  A damaged line *followed by
    a valid one* cannot come from a crash — appends never rewrite earlier
    bytes — so it means real file damage and raises instead of being
    silently dropped.  Unknown-but-well-formed line kinds (headers,
    future extensions) are skipped without comment.

    With ``salvage=True`` mid-file damage is *skipped* instead of raised,
    with one :class:`RuntimeWarning` per damaged line naming its line
    number — the shard merge uses this to harvest every point a
    hard-killed or disk-damaged shard did finish.  The default strict
    behavior is unchanged.

    Raises:
        ConfigurationError: a damaged line is followed by a valid line
            (mid-file damage) and ``salvage`` is off.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    lines = [
        (number, line)
        for number, line in enumerate(raw.split("\n"), start=1)
        if line.strip()
    ]
    entries: list[JournalEntry] = []
    damaged: list[tuple[int, Exception]] = []  # (line number, error)
    for number, line in lines:
        try:
            entry = JournalEntry.from_payload(json.loads(line))
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
            ConfigurationError,
        ) as error:
            damaged.append((number, error))
            continue
        if damaged and not salvage:
            # A valid line after a damaged one: not a torn tail.
            bad_number, bad_error = damaged[0]
            raise ConfigurationError(
                f"corrupt journal line {bad_number} in "
                f"{os.fspath(path)}: {bad_error}"
            ) from bad_error
        if entry is not None:
            entries.append(entry)
    if salvage:
        for skipped_number, skipped_error in damaged:
            warnings.warn(
                f"salvage: skipping corrupt journal line "
                f"{skipped_number} in {os.fspath(path)}: {skipped_error}",
                RuntimeWarning,
                stacklevel=2,
            )
    elif damaged:
        first, error = damaged[0]
        count = len(damaged)
        what = (
            f"line {first}"
            if count == 1
            else f"{count} lines starting at line {first}"
        )
        warnings.warn(
            f"discarding truncated/corrupt trailing journal {what} in "
            f"{os.fspath(path)} (crash mid-write?): {error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return entries


def journal_header(path: str | os.PathLike) -> Optional[dict]:
    """The decoded header line of a journal, or ``None`` if it has none.

    Only the first non-blank line is examined; a missing, corrupt, or
    non-header first line answers ``None`` rather than raising, so
    callers can treat "no header" and "unreadable header" uniformly (the
    shard merge then rejects the journal for lacking a sweep digest).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    break
            else:
                return None
    except OSError:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(payload, dict) and payload.get("kind") == "header":
        return payload
    return None


def repair_tail(path: str | os.PathLike, is_damaged=None) -> int:
    """Drop the contiguous run of damaged lines at the end of a JSONL file.

    The loop pops trailing lines while they are blank or fail the
    ``is_damaged`` validator, so a torn *multi-line* write (a process
    killed while the OS flushed a buffered block) is repaired the same
    way a single truncated line is.  Lines before a valid tail line are
    never touched.  Returns the number of damaged (non-blank) lines
    removed so callers can log the repair.

    Args:
        path: JSONL file to repair in place.
        is_damaged: ``bytes -> bool`` predicate for one stripped line;
            defaults to the sweep-journal validator.  Other JSONL
            consumers (e.g. the serve request log) pass their own.
    """
    if is_damaged is None:
        is_damaged = _line_is_damaged
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    keep = len(data)
    removed = 0
    while lines:
        last = lines[-1]
        stripped = last.strip()
        if stripped and not is_damaged(stripped):
            break
        if stripped:
            removed += 1
        keep -= len(lines.pop())  # damaged or blank tail line
    # Repair without rewriting: cut the file at the end of the last good
    # line, then newline-terminate that line so the next append starts a
    # fresh record.  A crash mid-repair leaves every complete record on
    # disk, and an undamaged file is never opened for writing.
    terminate = bool(lines) and not lines[-1].endswith(b"\n")
    if keep < len(data) or terminate:
        with open(path, "ab") as fh:
            fh.truncate(keep)
            if terminate:
                fh.write(b"\n")
            fh.flush()
            os.fsync(fh.fileno())
    return removed


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``, crash-safe.

    The bytes go to a temp file in the target's directory, are fsynced,
    and are renamed over the target, so a reader sees the old file or the
    new one, never a torn mix.  Every write gets its own temp file (an
    exclusive create under a random name), so concurrent writers — two
    threads of one process included — never write into each other's;
    a failed write removes its temp file.
    """
    target = os.fspath(path)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _line_is_damaged(line: bytes) -> bool:
    """Whether a journal line is unparseable (vs. merely unknown-kind)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return True
    try:
        JournalEntry.from_payload(payload)
    except (KeyError, TypeError, ValueError, ConfigurationError):
        return True
    return False
