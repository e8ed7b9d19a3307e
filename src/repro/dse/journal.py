"""JSONL checkpoint journal for long design-space sweeps.

A 200-point sweep that dies at point 173 should not cost 172 evaluations.
The engine appends one self-contained JSON line per *finished* point —
success, degraded success, or structured failure — flushing after every
line so a SIGKILL loses at most the point in flight.  On ``resume`` the
journal is read back, finished points are skipped, and their metrics are
rehydrated into lightweight :class:`SummaryResult` rows that expose the
same metric surface as a freshly-evaluated
:class:`~repro.dse.sweep.DesignPointResult` (minus the estimate tree,
which is not serialized).

Journal format (one JSON object per line)::

    {"kind": "header", "version": 1, "points": 42}
    {"kind": "point", "point": [64, 2, 2, 4], "status": "ok",
     "attempt": 1, "wall_time_s": 1.8, "metrics": {...}, "failure": null}
    {"kind": "point", "point": [4, 4, 8, 16], "status": "failed",
     "attempt": 2, "wall_time_s": 0.2, "metrics": null,
     "failure": {"stage": "simulate", "error_type": "MappingError",
                 "message": "...", "degraded": true}}

``status`` is ``ok`` (full evaluation), ``degraded`` (peak-only metrics
after a retry), or ``failed`` (both attempts exhausted).
"""

from __future__ import annotations

import io
import json
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.dse.metrics import (
    arithmetic_mean,
    positive_geomean,
    tops_per_tco,
    tops_per_watt,
)
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError

JOURNAL_VERSION = 1

#: Final statuses a journaled point can carry.
STATUSES = ("ok", "degraded", "failed")


def summarize_result(result: Any) -> dict:
    """Flatten a DesignPointResult into the JSON-serializable metrics dict.

    Enough is kept to reproduce every Fig. 8 / Fig. 10 table row — chip
    numbers, peak efficiencies, and per-outcome runtime metrics — without
    serializing the estimate tree.
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
                "latency_ms": (
                    o.result.latency_ms
                    if getattr(o, "result", None) is not None
                    else getattr(o, "latency_ms", None)
                ),
            }
            for o in result.outcomes
        ],
    }


@dataclass(frozen=True)
class SummaryOutcome:
    """A journal-rehydrated workload outcome (no SimulationResult)."""

    workload: str
    batch: int
    regime: str
    achieved_tops: float
    utilization: float
    runtime_power_w: float
    latency_ms: Optional[float] = None

    @property
    def energy_efficiency(self) -> float:
        return tops_per_watt(self.achieved_tops, self.runtime_power_w)


@dataclass(frozen=True)
class SummaryResult:
    """A design-point result rebuilt from journal metrics.

    Mirrors the metric surface of
    :class:`~repro.dse.sweep.DesignPointResult` — chip numbers, peak
    efficiencies, and the per-batch mean metrics — so rankings, tables,
    and optimizers work identically on resumed and fresh rows.  The
    estimate breakdown is not journaled; ``estimate`` is ``None``.
    """

    point: DesignPoint
    area_mm2: float
    tdp_w: float
    peak_tops: float
    outcomes: tuple[SummaryOutcome, ...] = field(default_factory=tuple)
    estimate: None = None

    @property
    def peak_tops_per_watt(self) -> float:
        return tops_per_watt(self.peak_tops, self.tdp_w)

    @property
    def peak_tops_per_tco(self) -> float:
        return tops_per_tco(self.peak_tops, self.area_mm2, self.tdp_w)

    def _at_batch(self, batch: Optional[object]) -> list[SummaryOutcome]:
        if batch is None:
            return list(self.outcomes)
        regime = batch if batch == "latency-bound" else f"bs={batch}"
        return [o for o in self.outcomes if o.regime == regime]

    def mean_achieved_tops(self, batch: Optional[int] = None) -> float:
        return arithmetic_mean(
            [o.achieved_tops for o in self._at_batch(batch)]
        )

    def mean_utilization(self, batch: Optional[int] = None) -> float:
        return positive_geomean(
            [o.utilization for o in self._at_batch(batch)],
            field="utilization",
        )

    def mean_energy_efficiency(self, batch: Optional[int] = None) -> float:
        return positive_geomean(
            [o.energy_efficiency for o in self._at_batch(batch)],
            field="energy_efficiency",
        )

    def mean_cost_efficiency(self, batch: Optional[int] = None) -> float:
        return positive_geomean(
            [
                tops_per_tco(
                    o.achieved_tops, self.area_mm2, o.runtime_power_w
                )
                for o in self._at_batch(batch)
            ],
            field="cost_efficiency",
        )

    @classmethod
    def from_metrics(cls, point: DesignPoint, metrics: dict) -> "SummaryResult":
        return cls(
            point=point,
            area_mm2=metrics["area_mm2"],
            tdp_w=metrics["tdp_w"],
            peak_tops=metrics["peak_tops"],
            outcomes=tuple(
                SummaryOutcome(
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

    @classmethod
    def from_json(cls, line: str) -> Optional["JournalEntry"]:
        """Parse one journal line; ``None`` for headers/corrupt lines."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return None
        try:
            return cls.from_payload(payload)
        except (KeyError, TypeError, ValueError, ConfigurationError):
            return None

    def summary_result(self) -> Optional[SummaryResult]:
        """Rehydrate the metrics into a result row (``None`` if failed)."""
        if self.metrics is None:
            return None
        return SummaryResult.from_metrics(self.point, self.metrics)


class Journal:
    """Append-only JSONL writer with crash-safe per-line flushing.

    ``meta`` is an optional JSON-serializable dict folded into the header
    line under the ``"meta"`` key — shard workers stamp the sweep digest
    and their shard coordinates there so a later merge can refuse
    journals from a different grid (see :func:`journal_header`).  The
    header is only written when the file starts empty; resuming an
    existing journal keeps whatever header it already has.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        resume: bool = False,
        meta: Optional[dict] = None,
    ):
        self.path = os.fspath(path)
        self.entries: list[JournalEntry] = []
        if resume and os.path.exists(self.path):
            self.entries = load_journal(self.path)
            _repair_tail(self.path)
        mode = "a" if resume else "w"
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh: Optional[io.TextIOBase] = open(
            self.path, mode, encoding="utf-8"
        )
        if mode == "w" or os.path.getsize(self.path) == 0:
            header = {"kind": "header", "version": JOURNAL_VERSION}
            if meta:
                header["meta"] = meta
            self._write_line(json.dumps(header, sort_keys=True))

    def _write_line(self, line: str) -> None:
        assert self._fh is not None
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, entry: JournalEntry) -> None:
        """Record one finished point; flushed and fsynced immediately."""
        if self._fh is None:
            raise ConfigurationError("journal is closed")
        self.entries.append(entry)
        self._write_line(entry.to_json())

    def finished_points(self) -> set[DesignPoint]:
        """Points with a final record (ok, degraded, *or* failed)."""
        return {entry.point for entry in self.entries}

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
        if damaged:
            # A valid line after a damaged one: not a torn tail.
            bad_number, bad_error = damaged[0]
            if not salvage:
                raise ConfigurationError(
                    f"corrupt journal line {bad_number} in "
                    f"{os.fspath(path)}: {bad_error}"
                ) from bad_error
            for skipped_number, skipped_error in damaged:
                warnings.warn(
                    f"salvage: skipping corrupt journal line "
                    f"{skipped_number} in {os.fspath(path)}: "
                    f"{skipped_error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            damaged = []
        if entry is not None:
            entries.append(entry)
    if damaged and salvage:
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


def _repair_tail(path: str) -> None:
    """Truncate damaged trailing lines so appended records start clean.

    Without this, resuming after a crash mid-write would append the next
    JSON record onto the partial line, corrupting *both*.  Only trailing
    damage is repaired (``load_journal`` has already raised for anything
    deeper); the repair is silent because the load already warned.
    """
    repair_tail(path)


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
