"""Crash-point matrix for every durable write.

A forked writer is killed (``os._exit``, which skips every Python-level
flush, like a SIGKILL) right after one step of its write — ``write``,
``flush`` or ``fsync``; for :func:`repro.dse.journal.atomic_write` also
just before and just after ``os.replace`` — under each caller: the sweep
journal (one row, and a batch of rows committed together), the daemon's
request log and the surrogate model save.  A reader must then see the
old state or the new one, exactly as the step implies, and a reopened
log must append a clean record.  A batch whose write the OS took only in
part leaves the old rows and a whole-line prefix of the batch, and two
threads rewriting one file through ``atomic_write`` never tear it.
"""

from __future__ import annotations

import builtins
import json
import os
import threading

import numpy as np
import pytest

from repro.dse import journal as journal_module
from repro.dse.journal import (
    Journal,
    JournalEntry,
    atomic_write,
    load_journal,
)
from repro.dse.space import DesignPoint
from repro.dse.surrogate.features import TARGET_NAMES
from repro.dse.surrogate.model import SurrogateModel, fit_surrogate
from repro.serve.requestlog import RequestLog, load_request_log

#: The forked writer's exit status when it was killed at its step.
KILLED = 73

APPEND_STEPS = ("write", "flush", "fsync")
ATOMIC_STEPS = APPEND_STEPS + ("before-replace", "after-replace")

#: What a reader must see after a kill at each step.  An append is
#: visible once flushed to the OS; an atomic write only once renamed.
EXPECTED = {
    "append": {"write": "old", "flush": "new", "fsync": "new"},
    "atomic": {
        "write": "old",
        "flush": "old",
        "fsync": "old",
        "before-replace": "old",
        "after-replace": "new",
    },
}


def _die_after(step: str) -> None:
    """In the forked writer: exit right after ``step`` of a durable write.

    ``torn-write`` hands the OS only the first half of the first write's
    data and exits, as a kill inside the ``write`` system call would.
    """
    real_open, real_fsync, real_replace = builtins.open, os.fsync, os.replace

    def stop(name: str) -> None:
        if name == step:
            os._exit(KILLED)

    class Traced:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            if step == "torn-write":
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
                stop("torn-write")
            written = self._fh.write(data)
            stop("write")
            return written

        def flush(self):
            self._fh.flush()
            stop("flush")

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._fh.close()

    def traced_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return Traced(fh) if set(mode) & set("wax+") else fh

    def traced_fsync(fd):
        real_fsync(fd)
        stop("fsync")

    def traced_replace(src, dst):
        stop("before-replace")
        real_replace(src, dst)
        stop("after-replace")

    journal_module.open = traced_open
    os.fsync = traced_fsync
    os.replace = traced_replace


def _kill_mid_write(step: str, write) -> None:
    pid = os.fork()
    if pid == 0:  # the writer: never returns into the test runner
        try:
            _die_after(step)
            write()
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == KILLED


def _entry(x: int) -> JournalEntry:
    return JournalEntry(
        point=DesignPoint(x, 4, 2, 2),
        status="ok",
        metrics={"area_mm2": 1.0, "tdp_w": 1.0, "peak_tops": 1.0},
    )


def _lines_parse(path) -> None:
    for line in open(path, encoding="utf-8"):
        json.loads(line)


# -- callers: (pattern, set up old state, write new state, read, reopen) -------


class SweepJournal:
    pattern = "append"

    def setup(self, path):
        with Journal(path) as journal:
            journal.append(_entry(8))

    def write(self, path):
        with Journal(path, resume=True) as journal:
            journal.append(_entry(16))

    def read(self, path):
        return {
            (8,): "old", (8, 16): "new",
        }[tuple(e.point.x for e in load_journal(path))]

    def reopen(self, path):
        with Journal(path, resume=True) as journal:
            journal.append(_entry(32))
        assert load_journal(path)[-1].point.x == 32
        _lines_parse(path)


#: The rows a batched writer commits together after the old row (8).
BATCH = (16, 32, 64)


def _batch_state(path) -> str:
    """``old`` or ``new``, or ``prefix`` for the old row and part of the
    batch; anything but a whole-line prefix of the batch fails."""
    rows = tuple(e.point.x for e in load_journal(path))
    assert rows[:1] == (8,)
    landed = rows[1:]
    assert landed == BATCH[: len(landed)]
    if not landed:
        return "old"
    return "new" if landed == BATCH else "prefix"


class SweepJournalBatch:
    """Rows committed with one write, flush and fsync.  The batch is far
    smaller than the write buffer, so nothing reaches the OS before the
    flush."""

    pattern = "append"

    def setup(self, path):
        with Journal(path) as journal:
            journal.append(_entry(8))

    def write(self, path):
        with Journal(path, resume=True) as journal:
            journal.append(*(_entry(x) for x in BATCH))

    def read(self, path):
        return _batch_state(path)

    def reopen(self, path):
        with Journal(path, resume=True) as journal:
            assert journal.repaired_lines == 0
            journal.append(_entry(4), _entry(2))
        assert [e.point.x for e in load_journal(path)][-2:] == [4, 2]
        _lines_parse(path)


class RequestLogCaller:
    pattern = "append"

    def setup(self, path):
        with RequestLog(path) as log:
            log.record(1, "/estimate", 200, 0.01)

    def write(self, path):
        with RequestLog(path) as log:
            log.record(2, "/sweep", 200, 0.02)

    def read(self, path):
        return {
            (1,): "old", (1, 2): "new",
        }[tuple(e["id"] for e in load_request_log(path))]

    def reopen(self, path):
        with RequestLog(path) as log:
            assert log.repaired_lines == 0
            log.record(3, "/doctor", 200, 0.5)
        assert load_request_log(path)[-1]["id"] == 3
        _lines_parse(path)


class ModelSave:
    pattern = "atomic"

    def _model(self, seed: int) -> SurrogateModel:
        rng = np.random.default_rng(seed)
        features = rng.uniform(1.0, 4.0, size=(8, 3))
        targets = np.full((8, len(TARGET_NAMES)), np.nan)
        targets[:, 0] = features[:, 0]
        return fit_surrogate(
            features, targets, digest="crash", seed=seed, members=2,
            rounds=2,
        )

    def setup(self, path):
        self._model(0).save(path)

    def write(self, path):
        self._model(1).save(path)

    def read(self, path):
        return {0: "old", 1: "new"}[SurrogateModel.load(path).seed]


CALLERS = {
    "sweep-journal": SweepJournal,
    "sweep-journal-batch": SweepJournalBatch,
    "request-log": RequestLogCaller,
    "model-save": ModelSave,
}

MATRIX = [
    (name, step)
    for name, caller in CALLERS.items()
    for step in (APPEND_STEPS if caller.pattern == "append"
                 else ATOMIC_STEPS)
]


@pytest.mark.parametrize(
    "name, step", MATRIX, ids=[f"{n}-{s}" for n, s in MATRIX]
)
def test_a_killed_writer_leaves_the_old_state_or_the_new(
    tmp_path, name, step
):
    caller = CALLERS[name]()
    path = str(tmp_path / "durable")
    caller.setup(path)
    _kill_mid_write(step, lambda: caller.write(path))
    assert caller.read(path) == EXPECTED[caller.pattern][step]
    if hasattr(caller, "reopen"):
        caller.reopen(path)


def test_a_batch_torn_mid_write_leaves_a_whole_line_prefix(tmp_path):
    caller = SweepJournalBatch()
    path = str(tmp_path / "durable")
    caller.setup(path)
    _kill_mid_write("torn-write", lambda: caller.write(path))
    with pytest.warns(RuntimeWarning, match="trailing journal line"):
        assert caller.read(path) == "prefix"
    with pytest.warns(RuntimeWarning, match="trailing journal line"):
        journal = Journal(path, resume=True)
    with journal:
        assert journal.repaired_lines == 1
        journal.append(_entry(4))
    assert [e.point.x for e in load_journal(path)] == [8, 16, 4]
    _lines_parse(path)


def test_concurrent_atomic_writes_never_tear(tmp_path):
    """Two threads rewrite one file while a third reads it.

    Each write has its own temp file, so neither writer renames the
    other's file away (``FileNotFoundError``) or publishes it half
    written: the reader only ever sees a whole payload, and no temp
    file is left behind.
    """
    path = tmp_path / "durable"
    payloads = (b"a" * 65536, b"b" * 4096)
    atomic_write(path, payloads[0])
    errors, reads = [], []
    writing = threading.Event()
    writing.set()

    def write(data):
        try:
            for _ in range(200):
                atomic_write(path, data)
        except Exception as error:
            errors.append(error)

    def read():
        while writing.is_set():
            try:
                reads.append(path.read_bytes())
            except OSError as error:
                errors.append(error)

    writers = [
        threading.Thread(target=write, args=(data,)) for data in payloads
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
    assert reads and set(reads) <= set(payloads)
    assert [p.name for p in tmp_path.iterdir()] == ["durable"]
