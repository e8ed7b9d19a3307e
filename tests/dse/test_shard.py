"""Crash-safe sharded sweeps: manifests, leases, verified merge, drill.

The suite runs bottom-up: manifest partitioning and tamper detection,
lease acquire/heartbeat/reclaim semantics, the verified merge (missing
points, benign duplicates, divergence as a typed integrity failure),
the CLI exit-code contract (exit 2 on anything un-mergeable), and
finally the full-grid SIGKILL drill — three independent worker
processes, one murdered mid-shard, reclaimed, re-run, and merged
bit-identically against a single-process ``run_sweep``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse.engine import run_sweep
from repro.dse.journal import Journal, JournalEntry, load_journal
from repro.dse.shard import (
    DEFAULT_STALE_AFTER_S,
    SHARD_ABANDONED,
    SHARD_COMPLETE,
    SHARD_IN_PROGRESS,
    SHARD_PENDING,
    ShardLease,
    ShardManifest,
    build_manifest,
    claimable_shards,
    merge_journals,
    read_lease,
    run_shard,
    shard_status,
)
from repro.dse.space import DesignPoint, full_grid
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ShardLeaseHeldError,
)

REPO = Path(__file__).resolve().parents[2]

POINTS = [DesignPoint(x, 4, 2, 2) for x in (4, 8, 16, 32, 64, 128, 256)]


def _metrics(x: int) -> dict:
    return {"area_mm2": float(x), "tdp_w": 1.5 * x, "peak_tops": 2.0 * x,
            "outcomes": []}


def _entry(point: DesignPoint, **overrides) -> JournalEntry:
    fields = {
        "point": point,
        "status": "ok",
        "metrics": _metrics(point.x),
        "wall_time_s": 0.01,
    }
    fields.update(overrides)
    return JournalEntry(**fields)


def _write_shard_journal(manifest, journal_dir, index, entries) -> str:
    path = os.path.join(journal_dir, manifest.journal_name(index))
    with Journal(path, meta=manifest.journal_meta(index)) as journal:
        for entry in entries:
            journal.append(entry)
    return path


def _fill_shard(manifest, journal_dir, index, **overrides) -> str:
    return _write_shard_journal(
        manifest, journal_dir, index,
        [_entry(p, **overrides) for p in manifest.shard_points(index)],
    )


# -- manifest -------------------------------------------------------------------


def test_partition_is_balanced_and_covers_every_point():
    manifest = build_manifest(POINTS, 3)
    sizes = [spec.count for spec in manifest.shards]
    assert sum(sizes) == len(POINTS)
    assert max(sizes) - min(sizes) <= 1
    covered = [
        p for i in range(manifest.shard_count)
        for p in manifest.shard_points(i)
    ]
    assert covered == list(POINTS)


def test_manifest_is_deterministic():
    first = build_manifest(POINTS, 3, workloads=["resnet"], batches=[1])
    second = build_manifest(POINTS, 3, workloads=["resnet"], batches=[1])
    assert first.to_dict() == second.to_dict()
    assert first.sweep_digest == second.sweep_digest


def test_manifest_roundtrips_through_disk(tmp_path):
    manifest = build_manifest(POINTS, 2, workloads=["resnet"], batches=[4])
    path = manifest.write(tmp_path / "m.json")
    loaded = ShardManifest.load(path)
    assert loaded == manifest


def test_concurrent_manifest_writes_never_tear(tmp_path):
    """Two threads rewrite one manifest while a third reads it.

    Each write has its own temp file, so neither writer renames the
    other's file away (``FileNotFoundError``) or publishes it half
    written, and the reader only ever loads a whole manifest.
    """
    path = tmp_path / "m.json"
    manifests = [build_manifest(POINTS, 2), build_manifest(POINTS[:5], 3)]
    manifests[0].write(path)
    errors, reads = [], []
    writing = threading.Event()
    writing.set()

    def write(manifest):
        try:
            for _ in range(200):
                manifest.write(path)
        except Exception as error:
            errors.append(error)

    def read():
        while writing.is_set():
            try:
                reads.append(ShardManifest.load(path))
            except ConfigurationError as error:
                errors.append(error)

    writers = [
        threading.Thread(target=write, args=(m,)) for m in manifests
    ]
    reader = threading.Thread(target=read)
    reader.start()
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join()
    writing.clear()
    reader.join()
    assert errors == []
    assert reads and all(read in manifests for read in reads)
    assert os.listdir(tmp_path) == ["m.json"]


def test_digest_separates_recipes():
    base = build_manifest(POINTS, 2)
    assert base.sweep_digest != \
        build_manifest(POINTS, 2, workloads=["resnet"]).sweep_digest
    assert base.sweep_digest != \
        build_manifest(POINTS, 2, batches=[8]).sweep_digest
    assert base.sweep_digest != \
        build_manifest(POINTS[:-1], 2).sweep_digest
    # ...but not the shard *count*: the same recipe split differently
    # merges interchangeably.
    assert base.sweep_digest == build_manifest(POINTS, 3).sweep_digest


def test_tampered_manifest_refuses_to_load(tmp_path):
    manifest = build_manifest(POINTS, 2)
    path = manifest.write(tmp_path / "m.json")
    payload = json.loads(Path(path).read_text())
    payload["points"][0] = [512, 4, 2, 2]
    Path(path).write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="digest mismatch"):
        ShardManifest.load(path)


def test_forged_self_digest_is_caught_by_sweep_digest(tmp_path):
    # An attacker recomputing manifest_digest still cannot forge the
    # version-salted sweep digest over edited points.
    manifest = build_manifest(POINTS, 2)
    payload = manifest.to_dict()
    payload["points"][0] = [512, 4, 2, 2]
    payload.pop("manifest_digest")
    from repro.cache.keys import short_hash

    payload["manifest_digest"] = short_hash("manifest", payload)
    (tmp_path / "m.json").write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="sweep digest"):
        ShardManifest.load(tmp_path / "m.json")


def test_build_manifest_rejects_bad_inputs():
    with pytest.raises(ConfigurationError, match="empty"):
        build_manifest([], 1)
    with pytest.raises(ConfigurationError, match="shard count"):
        build_manifest(POINTS, 0)
    with pytest.raises(ConfigurationError, match="shard count"):
        build_manifest(POINTS, len(POINTS) + 1)
    with pytest.raises(ConfigurationError, match="duplicates"):
        build_manifest(POINTS + [POINTS[0]], 2)


# -- leases ---------------------------------------------------------------------


def test_lease_lifecycle(tmp_path):
    path = tmp_path / "j.jsonl.lease"
    assert read_lease(path).state == SHARD_PENDING
    lease = ShardLease(path, shard=0)
    lease.acquire()
    assert read_lease(path).state == SHARD_IN_PROGRESS
    lease.heartbeat(force=True)
    lease.release(complete=True)
    assert read_lease(path).state == SHARD_COMPLETE


def test_live_lease_refuses_a_second_claimant(tmp_path):
    path = tmp_path / "j.jsonl.lease"
    ShardLease(path, shard=0).acquire()
    with pytest.raises(ShardLeaseHeldError) as exc:
        ShardLease(path, shard=0).acquire()
    assert exc.value.shard == 0
    assert str(os.getpid()) in exc.value.holder


def test_stale_heartbeat_is_reclaimed(tmp_path):
    path = tmp_path / "j.jsonl.lease"
    lease = ShardLease(path, shard=0)
    lease.acquire()
    # Backdate the heartbeat past the staleness window and disguise the
    # owner as another host, so only the timestamp can reclaim it.
    payload = json.loads(path.read_text())
    payload["heartbeat_at"] -= DEFAULT_STALE_AFTER_S + 10.0
    payload["host"] = "some-other-machine"
    path.write_text(json.dumps(payload))
    assert read_lease(path).state == SHARD_ABANDONED
    ShardLease(path, shard=0).acquire()  # reclaim succeeds
    assert read_lease(path).state == SHARD_IN_PROGRESS


def test_fresh_heartbeat_on_another_host_is_held(tmp_path):
    path = tmp_path / "j.jsonl.lease"
    ShardLease(path, shard=0).acquire()
    payload = json.loads(path.read_text())
    payload["host"] = "some-other-machine"
    path.write_text(json.dumps(payload))
    with pytest.raises(ShardLeaseHeldError):
        ShardLease(path, shard=0).acquire()


def test_dead_pid_on_this_host_is_reclaimed_fast(tmp_path):
    """The SIGKILL fast path: fresh heartbeat, but the pid is gone."""
    path = tmp_path / "j.jsonl.lease"
    ShardLease(path, shard=0).acquire()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    payload = json.loads(path.read_text())
    payload["pid"] = child.pid  # definitely dead, heartbeat still fresh
    path.write_text(json.dumps(payload))
    assert read_lease(path).state == SHARD_ABANDONED
    ShardLease(path, shard=0).acquire()


def test_torn_lease_file_is_abandoned(tmp_path):
    path = tmp_path / "j.jsonl.lease"
    path.write_text('{"kind": "shard-le')  # torn write
    assert read_lease(path).state == SHARD_ABANDONED
    ShardLease(path, shard=0).acquire()


# -- run_shard + status ---------------------------------------------------------


def test_run_shard_executes_and_completes(tmp_path):
    manifest = build_manifest(POINTS, 3)
    report = run_shard(manifest, 0, tmp_path)
    assert [r.point for r in report.records] == manifest.shard_points(0)
    assert all(r.status == "ok" for r in report.records)
    rows = shard_status(manifest, tmp_path)
    assert rows[0]["state"] == SHARD_COMPLETE
    assert rows[1]["state"] == SHARD_PENDING
    assert claimable_shards(manifest, tmp_path) == [1, 2]


def test_run_shard_resumes_only_missing_points(tmp_path):
    manifest = build_manifest(POINTS, 2)
    # A previous owner journaled the first point, then died.
    _write_shard_journal(
        manifest, tmp_path, 0,
        [_entry(manifest.shard_points(0)[0])],
    )
    report = run_shard(manifest, 0, tmp_path)
    rehydrated = [r for r in report.records if r.from_journal]
    assert [r.point for r in rehydrated] == [manifest.shard_points(0)[0]]
    assert len(report.records) == len(manifest.shard_points(0))


def test_run_shard_rejects_foreign_journal(tmp_path):
    manifest = build_manifest(POINTS, 2)
    other = build_manifest(POINTS, 2, workloads=["resnet"])
    _write_shard_journal(
        other, tmp_path, 0, [_entry(other.shard_points(0)[0])]
    )
    # Same filename, different sweep digest in the header.
    with pytest.raises(ConfigurationError, match="sweep digest"):
        run_shard(manifest, 0, tmp_path)


def test_run_shard_refuses_a_held_shard(tmp_path):
    manifest = build_manifest(POINTS, 2)
    ShardLease(
        os.path.join(tmp_path, manifest.lease_name(1)), shard=1
    ).acquire()
    with pytest.raises(ShardLeaseHeldError):
        run_shard(manifest, 1, tmp_path)


# -- verified merge -------------------------------------------------------------


def test_merge_matches_single_process_run_sweep(tmp_path):
    manifest = build_manifest(POINTS, 3)
    for index in range(3):
        run_shard(manifest, index, tmp_path)
    outcome = merge_journals(manifest, tmp_path)
    assert outcome.complete
    reference = run_sweep(POINTS)
    assert len(outcome.report.records) == len(reference.records)
    for merged, ref in zip(outcome.report.records, reference.records):
        assert merged.point == ref.point
        assert merged.status == ref.status
        assert merged.metrics == ref.metrics  # bit-identical floats


def test_merge_reports_missing_points(tmp_path):
    manifest = build_manifest(POINTS, 3)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 2)
    outcome = merge_journals(manifest, tmp_path)
    assert not outcome.complete
    assert list(outcome.missing) == manifest.shard_points(1)
    assert "missing vs manifest" in outcome.summary()


def test_merge_tolerates_identical_duplicates(tmp_path):
    manifest = build_manifest(POINTS, 2)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    # Shard 1's journal also replays one of shard 0's points with an
    # identical payload (e.g. an over-eager worker): benign.
    duplicated = manifest.shard_points(0)[0]
    path = os.path.join(tmp_path, manifest.journal_name(1))
    with Journal(path, resume=True) as journal:
        journal.append(_entry(duplicated))
    outcome = merge_journals(manifest, tmp_path)
    assert outcome.complete
    assert outcome.duplicates == 1
    assert len(outcome.report.records) == len(POINTS)


def test_divergent_duplicate_is_an_integrity_failure(tmp_path):
    manifest = build_manifest(POINTS, 2)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    duplicated = manifest.shard_points(0)[0]
    divergent = _metrics(duplicated.x)
    divergent["tdp_w"] += 1e-9  # one bit of disagreement is enough
    path = os.path.join(tmp_path, manifest.journal_name(1))
    with Journal(path, resume=True) as journal:
        journal.append(_entry(duplicated, metrics=divergent))
    with pytest.raises(InvariantViolation) as exc:
        merge_journals(manifest, tmp_path)
    # The violation names the disagreeing field, not just the point.
    assert any("tdp_w" in line for line in exc.value.violations)
    assert any("shard 0 vs shard 1" in line for line in exc.value.violations)


def test_merge_rejects_journal_from_another_sweep(tmp_path):
    manifest = build_manifest(POINTS, 2)
    other = build_manifest(POINTS, 2, workloads=["resnet"])
    _fill_shard(other, tmp_path, 0)
    with pytest.raises(ConfigurationError, match="sweep digest"):
        merge_journals(manifest, tmp_path)


def test_merge_rejects_headerless_journal(tmp_path):
    manifest = build_manifest(POINTS, 2)
    path = os.path.join(tmp_path, manifest.journal_name(0))
    with Journal(path) as journal:  # no meta: not a shard worker's file
        journal.append(_entry(manifest.shard_points(0)[0]))
    with pytest.raises(ConfigurationError, match="no sweep digest"):
        merge_journals(manifest, tmp_path)


def test_merge_flags_points_outside_the_manifest(tmp_path):
    manifest = build_manifest(POINTS, 2)
    _fill_shard(manifest, tmp_path, 0)
    path = os.path.join(tmp_path, manifest.journal_name(0))
    with Journal(path, resume=True) as journal:
        journal.append(_entry(DesignPoint(512, 4, 2, 2)))
    with pytest.raises(InvariantViolation) as exc:
        merge_journals(manifest, tmp_path)
    assert any("not in" in line for line in exc.value.violations)


def test_merge_salvages_mid_journal_corruption(tmp_path):
    manifest = build_manifest(POINTS, 2)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    path = os.path.join(tmp_path, manifest.journal_name(0))
    lines = Path(path).read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]  # torn mid-file line
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.warns(RuntimeWarning, match="salvage"):
        outcome = merge_journals(manifest, tmp_path)
    assert outcome.salvaged_lines == 1
    # The torn line's point is simply missing, not silently invented.
    assert len(outcome.missing) == 1
    # Strict mode refuses instead.
    with pytest.raises(ConfigurationError, match="corrupt journal line"):
        merge_journals(manifest, tmp_path, salvage=False)


# -- CLI exit codes -------------------------------------------------------------


def _cli_manifest(tmp_path, shards=2) -> str:
    path = str(tmp_path / "m.json")
    build_manifest(
        POINTS, shards, workloads=["resnet"], batches=[1]
    ).write(path)
    return path


def test_cli_merge_exits_2_on_missing_points(tmp_path, capsys):
    manifest = build_manifest(POINTS, 2)
    path = str(tmp_path / "m.json")
    manifest.write(path)
    _fill_shard(manifest, tmp_path, 0)
    assert main(["merge", "--manifest", path]) == 2
    err = capsys.readouterr().err
    assert "no journaled result" in err


def test_cli_merge_exits_2_on_divergence(tmp_path, capsys):
    manifest = build_manifest(POINTS, 2)
    path = str(tmp_path / "m.json")
    manifest.write(path)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    duplicated = manifest.shard_points(0)[0]
    with Journal(
        os.path.join(tmp_path, manifest.journal_name(1)), resume=True
    ) as journal:
        journal.append(
            _entry(duplicated, metrics={**_metrics(duplicated.x),
                                        "peak_tops": -1.0})
        )
    assert main(["merge", "--manifest", path]) == 2
    assert "integrity violation" in capsys.readouterr().err


def test_cli_merge_exits_2_on_wrong_manifest(tmp_path, capsys):
    manifest = build_manifest(POINTS, 2)
    other = build_manifest(POINTS, 2, workloads=["resnet"])
    path = str(tmp_path / "m.json")
    manifest.write(path)
    _fill_shard(other, tmp_path, 0)
    assert main(["merge", "--manifest", path]) == 2
    assert "sweep digest" in capsys.readouterr().err


def test_cli_shard_spec_validation(tmp_path, capsys):
    path = _cli_manifest(tmp_path, shards=2)
    assert main(["dse", "--manifest", path, "--shard", "3/3"]) == 2
    assert main(["dse", "--manifest", path, "--shard", "0/2"]) == 2
    assert main(["dse", "--manifest", path, "--shard", "nope"]) == 2
    assert main(["dse", "--shard", "1/2"]) == 2  # no manifest
    capsys.readouterr()


def test_cli_merge_writes_resumable_output(tmp_path, capsys):
    manifest = build_manifest(POINTS, 2)
    path = str(tmp_path / "m.json")
    manifest.write(path)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    merged = str(tmp_path / "merged.jsonl")
    assert main(["merge", "--manifest", path, "--output", merged]) == 0
    entries = load_journal(merged)
    assert [e.point for e in entries] == list(POINTS)
    capsys.readouterr()


def test_cli_merge_commits_the_merged_rows_once(
    tmp_path, capsys, monkeypatch
):
    manifest = build_manifest(POINTS, 2)
    path = str(tmp_path / "m.json")
    manifest.write(path)
    _fill_shard(manifest, tmp_path, 0)
    _fill_shard(manifest, tmp_path, 1)
    merged = str(tmp_path / "merged.jsonl")
    commits = []
    fsync = os.fsync

    def counted(fd):
        if os.path.exists(merged) and os.path.samestat(
            os.fstat(fd), os.stat(merged)
        ):
            commits.append(fd)
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    assert main(["merge", "--manifest", path, "--output", merged]) == 0
    assert len(commits) == 2  # the header, then every merged row
    assert len(load_journal(merged)) == len(POINTS)
    capsys.readouterr()


# -- the SIGKILL drill ----------------------------------------------------------


def _worker(manifest_path: str, shard: str, backend: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "dse",
         "--manifest", manifest_path, "--shard", shard,
         "--backend", backend],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
    )


def test_sigkill_drill_full_grid_merges_bit_identically(tmp_path):
    """The chaos drill: 3 shard workers, one SIGKILLed, reclaim, merge.

    The full 210-point Table I grid (peak-only) is split 3 ways.  Two
    shards run as real ``neurometer dse --shard`` subprocesses; the
    victim runs the scalar backend (which journals point by point, so
    the kill lands mid-journal), is SIGKILLed after a few points, its
    lease is reclaimed through the dead-pid fast path, and the re-run
    resumes from the journal with the auto backend.  The merged report
    must match a single-process ``run_sweep`` bit for bit — per-point
    metrics, statuses, fallback totals, and the metric geomeans.
    """
    points = full_grid()
    manifest = build_manifest(points, 3)
    manifest_path = str(tmp_path / "m.json")
    manifest.write(manifest_path)

    # Shards 0 and 2: ordinary workers, run to completion.
    workers = [
        _worker(manifest_path, "1/3", "auto"),
        _worker(manifest_path, "3/3", "auto"),
    ]

    # Shard 1: the victim, scalar so each point journals individually.
    victim = _worker(manifest_path, "2/3", "scalar")
    victim_journal = tmp_path / manifest.journal_name(1)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            raise AssertionError(
                "victim finished before it could be killed:\n"
                + (victim.stdout.read() or "")
            )
        if victim_journal.exists():
            journaled = sum(
                1 for line in victim_journal.read_text().splitlines()
                if '"kind": "point"' in line or '"point":' in line
            )
            if journaled >= 3:
                break
        time.sleep(0.005)
    else:
        raise AssertionError("victim never journaled its first points")
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=30)

    for worker in workers:
        assert worker.wait(timeout=300) == 0, worker.stdout.read()

    # The victim's lease survives the SIGKILL with a *fresh* heartbeat;
    # only the dead-pid fast path makes it immediately reclaimable.
    lease = read_lease(tmp_path / manifest.lease_name(1))
    assert lease.state == SHARD_ABANDONED
    rows = shard_status(manifest, tmp_path)
    assert rows[1]["state"] == SHARD_ABANDONED
    assert 0 < rows[1]["finished"] < rows[1]["expected"]

    # Reclaim and finish the shard in-process with the *auto* backend:
    # scalar and vector estimates are bit-exact, so the backend switch
    # must not be observable in the merge.
    before = len(load_journal(victim_journal, salvage=True))
    report = run_shard(manifest, 1, tmp_path)
    rehydrated = sum(1 for r in report.records if r.from_journal)
    assert rehydrated == before  # only missing points were re-run

    outcome = merge_journals(manifest, tmp_path)
    assert outcome.complete
    assert not outcome.missing

    reference = run_sweep(points, backend="auto")
    assert len(outcome.report.records) == len(reference.records)
    logs_merged = []
    logs_reference = []
    for merged, ref in zip(outcome.report.records, reference.records):
        assert merged.point == ref.point
        assert merged.status == ref.status
        assert merged.metrics == ref.metrics  # bit-identical round trip
        logs_merged.append(merged.metrics["peak_tops"])
        logs_reference.append(ref.metrics["peak_tops"])
    assert outcome.report.fallback_totals() == reference.fallback_totals()

    import math

    def _geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    assert _geomean(logs_merged) == _geomean(logs_reference)
