"""Sharded, crash-safe sweep execution across independent processes.

The journal layer (:mod:`repro.dse.journal`) already makes *one* process
crash-safe: finished points are fsynced line by line and a resumed run
re-queues only the remainder.  This module scales that contract to a
fleet: a grid is partitioned into shards, any worker — on any machine
sharing the filesystem — claims shard *i/n*, journals independently, and
a verified merge rebuilds the single-process report bit for bit.

Three artifacts, all next to each other under one journal directory:

* **Shard manifest** (``build_manifest`` / :class:`ShardManifest`) — a
  content-addressed JSON file fixing the sweep recipe: the full point
  list, the workload names and batches, balanced per-shard index ranges,
  a per-shard digest of each range's points, and a ``sweep_digest``
  derived via :mod:`repro.cache.keys` (version-salted, so shards run
  under a different package version can never be merged silently).  The
  file carries its own digest and refuses to load after tampering.
* **Lease files** (:class:`ShardLease`) — ``journal.shard-i.jsonl.lease``
  JSON records with wall-clock heartbeat timestamps, refreshed as points
  finish.  A coordinator (or a later run) distinguishes *in-progress*
  (fresh heartbeat from a live owner), *abandoned* (stale heartbeat, or
  a dead pid on this host — the fast path after a SIGKILL), and
  *complete* shards; abandoned leases are reclaimed and the re-run
  resumes from the shard journal, re-evaluating only the missing points.
* **Verified merge** (:func:`merge_journals`) — rebuilds one
  :class:`~repro.dse.engine.SweepReport` from every shard journal.
  Cross-shard duplicates with *divergent* payloads are an integrity
  failure (:class:`~repro.errors.InvariantViolation` with per-field
  :class:`~repro.integrity.Violation` rows), never last-writer-wins;
  missing points are reported against the manifest; a journal whose
  header digest does not match the manifest is a typed
  :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cache.keys import short_hash
from repro.dse.engine import (
    SweepReport,
    WorkerPool,
    record_from_journal_entry,
    run_sweep,
)
from repro.dse.journal import (
    JournalEntry,
    atomic_write,
    journal_header,
    load_journal,
)
from repro.dse.space import DesignPoint
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ShardLeaseHeldError,
)

MANIFEST_VERSION = 1
LEASE_VERSION = 1

#: A lease whose heartbeat is older than this is reclaimable by default.
DEFAULT_STALE_AFTER_S = 60.0

#: Minimum seconds between heartbeat rewrites (each is a fsynced replace).
HEARTBEAT_INTERVAL_S = 2.0

#: Shard lifecycle states reported by :func:`shard_status`.
SHARD_PENDING = "pending"
SHARD_IN_PROGRESS = "in-progress"
SHARD_ABANDONED = "abandoned"
SHARD_COMPLETE = "complete"


def _wall_now() -> float:
    """Wall-clock seconds for lease heartbeats.

    Leases coordinate *across machines*, so a monotonic clock (whose
    epoch is per-boot) cannot express "this worker was alive 3 seconds
    ago" to anyone else.  This is measurement, not modeling: no modeled
    quantity derives from it.
    """
    return time.time()  # lint: allow(NM302): cross-machine lease heartbeats need the shared wall clock


def _point_list(point: DesignPoint) -> list:
    return [point.x, point.n, point.tx, point.ty]


def sweep_digest(
    points: Sequence[DesignPoint],
    workloads: Sequence[str] = (),
    batches: Sequence[object] = (),
) -> str:
    """Content digest of one sweep recipe (points + workloads + batches).

    Built on :func:`repro.cache.keys.short_hash`, which salts with the
    package version — the same grid swept under a different model version
    gets a different digest, so stale shards can never merge silently.
    """
    return short_hash(
        "sweep",
        [_point_list(p) for p in points],
        list(workloads),
        list(batches),
    )


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the manifest's point list.

    ``start``/``stop`` index the manifest's point list half-open;
    ``digest`` content-addresses exactly those points so a worker can
    verify it is executing the range the manifest intended.
    """

    index: int
    start: int
    stop: int
    digest: str

    @property
    def count(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardManifest:
    """The content-addressed execution plan of one sharded sweep."""

    sweep_digest: str
    points: tuple[DesignPoint, ...]
    shards: tuple[ShardSpec, ...]
    workloads: tuple[str, ...] = ()
    batches: tuple = ()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_points(self, index: int) -> list[DesignPoint]:
        spec = self.shard(index)
        return list(self.points[spec.start:spec.stop])

    def shard(self, index: int) -> ShardSpec:
        if not 0 <= index < len(self.shards):
            raise ConfigurationError(
                f"shard index must be in [0, {len(self.shards)}), "
                f"got {index}"
            )
        return self.shards[index]

    def journal_name(self, index: int) -> str:
        self.shard(index)
        return f"journal.shard-{index}.jsonl"

    def lease_name(self, index: int) -> str:
        return self.journal_name(index) + ".lease"

    def journal_meta(self, index: int) -> dict:
        """The header meta every shard journal is stamped with."""
        return {
            "sweep_digest": self.sweep_digest,
            "shard": index,
            "shards": self.shard_count,
        }

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        body = {
            "kind": "shard-manifest",
            "version": MANIFEST_VERSION,
            "sweep_digest": self.sweep_digest,
            "workloads": list(self.workloads),
            "batches": list(self.batches),
            "points": [_point_list(p) for p in self.points],
            "shards": [
                {
                    "index": s.index,
                    "start": s.start,
                    "stop": s.stop,
                    "digest": s.digest,
                }
                for s in self.shards
            ],
        }
        body["manifest_digest"] = short_hash("manifest", body)
        return body

    @classmethod
    def from_dict(cls, payload: object) -> "ShardManifest":
        """Rebuild and *verify* a manifest from its JSON form.

        Every digest is recomputed — the manifest's own, each shard's,
        and the sweep digest.  A sweep-digest mismatch also fires when
        the manifest was produced by a different package version (the
        digest is version-salted), which is exactly when merging its
        shards would be wrong.

        Raises:
            ConfigurationError: malformed, tampered, or version-skewed
                manifest.
        """
        if not isinstance(payload, dict) or \
                payload.get("kind") != "shard-manifest":
            raise ConfigurationError(
                "not a shard manifest (missing kind == 'shard-manifest')"
            )
        body = {k: v for k, v in payload.items() if k != "manifest_digest"}
        expected = short_hash("manifest", body)
        if payload.get("manifest_digest") != expected:
            raise ConfigurationError(
                "shard manifest digest mismatch: the file was edited or "
                "damaged after it was written"
            )
        try:
            points = tuple(
                DesignPoint(int(x), int(n), int(tx), int(ty))
                for x, n, tx, ty in payload["points"]
            )
            workloads = tuple(str(w) for w in payload["workloads"])
            batches = tuple(payload["batches"])
            shards = tuple(
                ShardSpec(
                    index=int(s["index"]),
                    start=int(s["start"]),
                    stop=int(s["stop"]),
                    digest=str(s["digest"]),
                )
                for s in payload["shards"]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed shard manifest: {error}"
            ) from error
        manifest = cls(
            sweep_digest=str(payload["sweep_digest"]),
            points=points,
            shards=shards,
            workloads=workloads,
            batches=batches,
        )
        manifest._verify()
        return manifest

    def _verify(self) -> None:
        expected = sweep_digest(self.points, self.workloads, self.batches)
        if self.sweep_digest != expected:
            raise ConfigurationError(
                "sweep digest mismatch: this manifest describes a "
                "different grid/recipe or was written by a different "
                "package version; re-partition the sweep instead of "
                "mixing shards across versions"
            )
        cursor = 0
        for position, spec in enumerate(self.shards):
            if spec.index != position or spec.start != cursor \
                    or spec.stop < spec.start:
                raise ConfigurationError(
                    f"shard ranges are not contiguous at shard {position}"
                )
            cursor = spec.stop
            chunk = self.points[spec.start:spec.stop]
            if spec.digest != _shard_digest(spec.index, chunk):
                raise ConfigurationError(
                    f"shard {position} point digest mismatch"
                )
        if cursor != len(self.points):
            raise ConfigurationError(
                f"shard ranges cover {cursor} of {len(self.points)} points"
            )

    def write(self, path: "str | os.PathLike") -> str:
        """Atomically write the manifest JSON; returns the path."""
        target = os.fspath(path)
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        text = json.dumps(self.to_dict(), sort_keys=True, indent=1)
        atomic_write(target, (text + "\n").encode("utf-8"))
        return target

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "ShardManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read shard manifest {os.fspath(path)}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"shard manifest {os.fspath(path)} is not valid JSON: "
                f"{error}"
            ) from error
        return cls.from_dict(payload)


def _shard_digest(index: int, points: Sequence[DesignPoint]) -> str:
    return short_hash("shard", index, [_point_list(p) for p in points])


def build_manifest(
    points: Sequence[DesignPoint],
    shards: int,
    workloads: Sequence[str] = (),
    batches: Sequence[object] = (),
) -> ShardManifest:
    """Partition a grid into ``shards`` balanced contiguous shards.

    The partition is deterministic in the input order: shard sizes differ
    by at most one point (the first ``len(points) % shards`` shards get
    the extra), so any worker recomputing the manifest from the same
    recipe gets byte-identical shard assignments.

    Raises:
        ConfigurationError: no points, or more shards than points.
    """
    points = list(points)
    if not points:
        raise ConfigurationError("cannot shard an empty sweep")
    if not 1 <= shards <= len(points):
        raise ConfigurationError(
            f"shard count must be in [1, {len(points)}] for "
            f"{len(points)} points, got {shards}"
        )
    if len(set(points)) != len(points):
        raise ConfigurationError(
            "the point list contains duplicates; shard journals key "
            "finished work by point, so each point must appear once"
        )
    base, extra = divmod(len(points), shards)
    specs = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunk = points[cursor:cursor + size]
        specs.append(ShardSpec(
            index=index,
            start=cursor,
            stop=cursor + size,
            digest=_shard_digest(index, chunk),
        ))
        cursor += size
    return ShardManifest(
        sweep_digest=sweep_digest(points, workloads, batches),
        points=tuple(points),
        shards=tuple(specs),
        workloads=tuple(str(w) for w in workloads),
        batches=tuple(batches),
    )


# -- leases ---------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OverflowError, ValueError):
        return False
    return True


@dataclass(frozen=True)
class LeaseState:
    """One lease file's interpreted state at a point in time."""

    state: str  # pending | in-progress | abandoned | complete
    payload: Optional[dict] = None

    def holder(self) -> str:
        if not self.payload:
            return "nobody"
        age = self.payload.get("_heartbeat_age_s")
        age_text = f", heartbeat {age:.1f}s ago" if age is not None else ""
        return (
            f"pid {self.payload.get('pid')} on "
            f"{self.payload.get('host')}{age_text}"
        )


def read_lease(
    path: "str | os.PathLike",
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> LeaseState:
    """Interpret one lease file: pending/in-progress/abandoned/complete.

    A lease is *abandoned* (reclaimable) when its heartbeat is older
    than ``stale_after_s``, or — the fast path after a SIGKILL — when it
    was taken on this host by a pid that no longer exists.  An
    unreadable or torn lease file is treated as abandoned too: the
    journal next to it, not the lease, is the source of truth for
    finished work.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return LeaseState(SHARD_PENDING)
    except (OSError, json.JSONDecodeError):
        return LeaseState(SHARD_ABANDONED)
    if not isinstance(payload, dict):
        return LeaseState(SHARD_ABANDONED)
    if payload.get("complete"):
        return LeaseState(SHARD_COMPLETE, payload)
    age = _wall_now() - float(payload.get("heartbeat_at", 0.0))
    payload = dict(payload)
    payload["_heartbeat_age_s"] = age
    if payload.get("host") == socket.gethostname():
        try:
            pid = int(payload.get("pid", -1))
        except (TypeError, ValueError):
            pid = -1
        if not _pid_alive(pid):
            return LeaseState(SHARD_ABANDONED, payload)
    if age > stale_after_s:
        return LeaseState(SHARD_ABANDONED, payload)
    return LeaseState(SHARD_IN_PROGRESS, payload)


class ShardLease:
    """Ownership of one shard, heartbeated next to its journal.

    The lease is advisory but atomic where it matters: a *pending* shard
    is claimed with ``O_CREAT | O_EXCL`` (two simultaneous claimants on
    one filesystem cannot both win), an *abandoned* one is reclaimed
    with an atomic replace, and every heartbeat is a tmp-write plus
    ``os.replace`` so readers never see a torn lease.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        shard: int,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
    ):
        self.path = os.fspath(path)
        self.shard = shard
        self.stale_after_s = stale_after_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.acquired = False
        self._last_beat = 0.0  # monotonic; rate-limits rewrites

    def _payload(self, complete: bool = False) -> dict:
        now = _wall_now()
        return {
            "kind": "shard-lease",
            "version": LEASE_VERSION,
            "shard": self.shard,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_at": now,
            "heartbeat_at": now,
            "complete": complete,
        }

    def _write(self, payload: dict) -> None:
        text = json.dumps(payload, sort_keys=True)
        atomic_write(self.path, (text + "\n").encode("utf-8"))

    def acquire(self) -> "ShardLease":
        """Claim the shard, reclaiming an abandoned or complete lease.

        Raises:
            ShardLeaseHeldError: a live owner is heartbeating the shard.
        """
        state = read_lease(self.path, self.stale_after_s)
        if state.state == SHARD_IN_PROGRESS:
            raise ShardLeaseHeldError(
                f"shard {self.shard} lease is held by {state.holder()}; "
                "claim a different shard or wait for the heartbeat to "
                f"go stale (> {self.stale_after_s:g}s)",
                shard=self.shard,
                holder=state.holder(),
            )
        payload = self._payload()
        if state.state == SHARD_PENDING:
            # Fresh claim: O_EXCL so simultaneous claimants cannot both win.
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            try:
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                fresh = read_lease(self.path, self.stale_after_s)
                raise ShardLeaseHeldError(
                    f"shard {self.shard} was claimed concurrently by "
                    f"{fresh.holder()}",
                    shard=self.shard,
                    holder=fresh.holder(),
                ) from None
            try:
                os.write(
                    fd,
                    (json.dumps(payload, sort_keys=True) + "\n").encode(),
                )
                os.fsync(fd)
            finally:
                os.close(fd)
        else:
            # Abandoned (or previously complete): reclaim atomically.
            self._write(payload)
        self.acquired = True
        self._last_beat = time.monotonic()
        return self

    def heartbeat(self, force: bool = False) -> None:
        """Refresh the heartbeat timestamp (rate-limited, fsynced)."""
        if not self.acquired:
            return
        now = time.monotonic()
        if not force and now - self._last_beat < self.heartbeat_interval_s:
            return
        payload = self._payload()
        self._write(payload)
        self._last_beat = now

    def release(self, complete: bool) -> None:
        """Mark the shard complete, or abandon it for the next claimant."""
        if not self.acquired:
            return
        if complete:
            self._write(self._payload(complete=True))
        else:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        self.acquired = False

    def __enter__(self) -> "ShardLease":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.acquired:
            self.release(complete=False)


# -- shard execution ------------------------------------------------------------


def _resolve_workloads(names: Sequence[str]) -> tuple:
    from repro.cli import _WORKLOADS

    pairs = []
    for name in names:
        if name not in _WORKLOADS:
            raise ConfigurationError(
                f"manifest names unknown workload {name!r}; choose from "
                f"{sorted(_WORKLOADS)}"
            )
        pairs.append((name, _WORKLOADS[name]()))
    return tuple(pairs)


def _check_journal_provenance(
    journal_path: str, manifest: ShardManifest, index: int
) -> None:
    """An existing shard journal must carry this manifest's digest."""
    if not os.path.exists(journal_path) or \
            os.path.getsize(journal_path) == 0:
        return
    header = journal_header(journal_path)
    meta = (header or {}).get("meta") or {}
    digest = meta.get("sweep_digest")
    if digest is None:
        raise ConfigurationError(
            f"journal {journal_path} has no sweep digest in its header; "
            "it was not written by a shard worker and cannot be verified "
            "against the manifest"
        )
    if digest != manifest.sweep_digest:
        raise ConfigurationError(
            f"journal {journal_path} was written for sweep digest "
            f"{digest}, but the manifest describes {manifest.sweep_digest} "
            "— a different grid, recipe, or package version"
        )
    shard = meta.get("shard")
    if shard is not None and int(shard) != index:
        raise ConfigurationError(
            f"journal {journal_path} belongs to shard {shard}, "
            f"not shard {index}"
        )


def run_shard(
    manifest: ShardManifest,
    index: int,
    journal_dir: "str | os.PathLike",
    *,
    ctx=None,
    backend: str = "auto",
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    chunk_size: Optional[int] = None,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    pool: Optional[WorkerPool] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    on_record: Optional[Callable] = None,
) -> SweepReport:
    """Claim and execute shard ``index`` of a manifest, journaled.

    Acquires the shard's lease (reclaiming an abandoned one), resumes
    from the shard journal if it exists — re-evaluating only the points
    the previous owner did not finish — heartbeats the lease as points
    complete, and marks the lease complete on success.  A cancelled run
    (``should_abort``) abandons the lease so another worker can pick the
    shard up immediately; the journal keeps everything finished.

    Raises:
        ShardLeaseHeldError: a live worker owns the shard.
        ConfigurationError: the journal on disk belongs to a different
            sweep/manifest, or the options are invalid.
    """
    journal_dir = os.fspath(journal_dir)
    os.makedirs(journal_dir, exist_ok=True)
    journal_path = os.path.join(journal_dir, manifest.journal_name(index))
    _check_journal_provenance(journal_path, manifest, index)
    lease = ShardLease(
        os.path.join(journal_dir, manifest.lease_name(index)),
        shard=index,
        stale_after_s=stale_after_s,
    )
    lease.acquire()

    def _on_record(record) -> None:
        lease.heartbeat()
        if on_record is not None:
            on_record(record)

    completed = False
    try:
        report = run_sweep(
            manifest.shard_points(index),
            _resolve_workloads(manifest.workloads),
            manifest.batches,
            ctx,
            backend=backend,
            jobs=jobs,
            timeout_s=timeout_s,
            chunk_size=chunk_size,
            strict=False,
            journal_path=journal_path,
            resume=True,
            journal_meta=manifest.journal_meta(index),
            on_record=_on_record,
            pool=pool,
            should_abort=should_abort,
        )
        completed = not report.cancelled
        return report
    finally:
        lease.release(complete=completed)


def shard_status(
    manifest: ShardManifest,
    journal_dir: "str | os.PathLike",
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> list[dict]:
    """Per-shard progress: state, finished/expected counts, holder.

    ``state`` is ``pending`` (never started), ``in-progress`` (live
    heartbeat), ``abandoned`` (stale heartbeat or dead local pid —
    claimable), or ``complete`` (lease marked done, or every expected
    point journaled).
    """
    journal_dir = os.fspath(journal_dir)
    rows = []
    for spec in manifest.shards:
        expected = set(manifest.shard_points(spec.index))
        journal_path = os.path.join(
            journal_dir, manifest.journal_name(spec.index)
        )
        finished: set[DesignPoint] = set()
        if os.path.exists(journal_path):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    entries = load_journal(journal_path, salvage=True)
                except OSError:
                    entries = []
            finished = {e.point for e in entries} & expected
        lease = read_lease(
            os.path.join(journal_dir, manifest.lease_name(spec.index)),
            stale_after_s,
        )
        state = lease.state
        if finished == expected and expected:
            state = SHARD_COMPLETE
        elif state == SHARD_COMPLETE:
            # Lease says done but the journal disagrees: claimable again.
            state = SHARD_ABANDONED
        elif state == SHARD_PENDING and finished:
            # Progress exists but nobody owns the shard.
            state = SHARD_ABANDONED
        rows.append({
            "shard": spec.index,
            "state": state,
            "finished": len(finished),
            "expected": len(expected),
            "holder": (
                lease.holder()
                if lease.state == SHARD_IN_PROGRESS else None
            ),
        })
    return rows


def claimable_shards(
    manifest: ShardManifest,
    journal_dir: "str | os.PathLike",
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
) -> list[int]:
    """Shard indices a new worker could claim right now, in order."""
    return [
        row["shard"]
        for row in shard_status(manifest, journal_dir, stale_after_s)
        if row["state"] in (SHARD_PENDING, SHARD_ABANDONED)
    ]


# -- verified merge -------------------------------------------------------------


@dataclass(frozen=True)
class MergeOutcome:
    """The result of merging every shard journal against a manifest.

    ``report`` holds one journal-rehydrated record per finished point in
    manifest order; ``missing`` lists manifest points no journal
    finished; ``duplicates`` counts points journaled by more than one
    shard with *identical* payloads (divergent payloads raise instead);
    ``salvaged_lines`` counts corrupt mid-file lines skipped under
    salvage.
    """

    report: SweepReport
    missing: tuple[DesignPoint, ...] = ()
    duplicates: int = 0
    salvaged_lines: int = 0

    @property
    def complete(self) -> bool:
        return not self.missing

    def summary(self) -> str:
        text = self.report.summary()
        if self.missing:
            text += f"; {len(self.missing)} missing vs manifest"
        if self.duplicates:
            text += f"; {self.duplicates} duplicate point(s)"
        if self.salvaged_lines:
            text += f"; {self.salvaged_lines} corrupt line(s) salvaged"
        return text


def _entry_signature(entry: JournalEntry) -> dict:
    """The divergence-relevant payload of one journal entry.

    Wall time, attempt count, and cache counters legitimately differ
    between two runs of the same point; results, status, failures, and
    fallback routing may not.
    """
    failure = None
    if entry.failure:
        failure = {
            key: entry.failure.get(key)
            for key in ("stage", "error_type", "message", "degraded")
        }
    return {
        "status": entry.status,
        "metrics": entry.metrics,
        "failure": failure,
        "fallback": entry.fallback,
    }


def merge_journals(
    manifest: ShardManifest,
    journal_dir: "str | os.PathLike",
    salvage: bool = True,
) -> MergeOutcome:
    """Rebuild one verified :class:`SweepReport` from all shard journals.

    Every journal's header digest is checked against the manifest before
    a single line is trusted; entries are deduplicated by point, and two
    journals disagreeing about one point's *results* is an integrity
    failure — the merge refuses to pick a winner.

    Raises:
        ConfigurationError: a journal belongs to a different sweep
            digest (grid, recipe, or package version skew), or carries
            no verifiable header.
        InvariantViolation: cross-shard duplicate points with divergent
            payloads, or journaled points absent from the manifest —
            with one :class:`~repro.integrity.Violation` line per
            disagreeing field.
    """
    from repro.integrity import Violation, diff_payloads

    journal_dir = os.fspath(journal_dir)
    expected = set(manifest.points)
    chosen: dict[DesignPoint, JournalEntry] = {}
    sources: dict[DesignPoint, int] = {}
    violations: list[Violation] = []
    duplicates = 0
    salvaged = 0
    for spec in manifest.shards:
        journal_path = os.path.join(
            journal_dir, manifest.journal_name(spec.index)
        )
        if not os.path.exists(journal_path):
            continue  # entirely missing shard: reported via `missing`
        _check_journal_provenance(journal_path, manifest, spec.index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = load_journal(journal_path, salvage=salvage)
        for warning in caught:
            if "salvage:" in str(warning.message):
                salvaged += 1
            warnings.warn(
                str(warning.message), RuntimeWarning, stacklevel=2
            )
        for entry in entries:
            point = entry.point
            if point not in expected:
                violations.append(Violation(
                    invariant="shard-foreign-point",
                    path=f"shard {spec.index}",
                    message=(
                        f"journaled point {point.label()} is not in "
                        "the manifest"
                    ),
                ))
                continue
            if point not in chosen:
                chosen[point] = entry
                sources[point] = spec.index
                continue
            first_sig = _entry_signature(chosen[point])
            second_sig = _entry_signature(entry)
            if first_sig == second_sig:
                duplicates += 1
                continue
            violations.extend(diff_payloads(
                (
                    f"{point.label()} (shard {sources[point]} vs "
                    f"shard {spec.index})"
                ),
                first_sig,
                second_sig,
                invariant="shard-divergence",
            ))
    if violations:
        lines = tuple(v.describe() for v in violations)
        raise InvariantViolation(
            f"shard merge found {len(lines)} integrity violation(s): "
            "cross-shard journals disagree and no winner will be picked; "
            "re-run the offending shards against the manifest",
            violations=lines,
        )
    records = tuple(
        record_from_journal_entry(chosen[point])
        for point in manifest.points
        if point in chosen
    )
    missing = tuple(p for p in manifest.points if p not in chosen)
    return MergeOutcome(
        report=SweepReport(records=records),
        missing=missing,
        duplicates=duplicates,
        salvaged_lines=salvaged,
    )
