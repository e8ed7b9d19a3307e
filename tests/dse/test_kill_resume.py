"""The kill-and-resume drill: a SIGKILLed sweep resumes bit for bit.

A real ``neurometer dse`` process sweeping the full Table I grid into a
journal is SIGKILLed mid-sweep; a second process resumes the journal on
another backend.  The journal must end with every point exactly once,
each row equal to a fresh single-process ``run_sweep``'s.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import _WORKLOADS
from repro.dse.engine import run_sweep
from repro.dse.journal import load_journal
from repro.dse.space import full_grid

REPO = Path(__file__).resolve().parents[2]


def _dse(journal: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "dse", "--full-grid",
         "--batch", "1", "--journal", str(journal), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
    )


def _point_rows(journal: Path) -> int:
    if not journal.exists():
        return 0
    return journal.read_text().count('"kind": "point"')


def test_sigkill_drill_resumes_bit_identically(tmp_path):
    """The victim runs the scalar backend, which commits each point
    alone, so the kill lands mid-journal; the resume runs on ``auto``.
    """
    journal = tmp_path / "sweep.jsonl"
    victim = _dse(journal, "--backend", "scalar")
    deadline = time.monotonic() + 120.0
    while _point_rows(journal) < 3:
        if victim.poll() is not None:
            raise AssertionError(
                "victim finished before it could be killed:\n"
                + (victim.stdout.read() or "")
            )
        assert time.monotonic() < deadline, "victim never journaled"
        time.sleep(0.005)
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=30)
    victim.stdout.close()
    finished = [entry.point for entry in load_journal(journal)]
    points = full_grid()
    assert 3 <= len(finished) < len(points)

    resume = _dse(journal, "--resume")
    output, _ = resume.communicate(timeout=300)
    assert resume.returncode == 0, output

    entries = load_journal(journal)
    assert [entry.point for entry in entries[: len(finished)]] == finished
    assert sorted(entry.point for entry in entries) == sorted(points)
    workloads = [(name, fn()) for name, fn in _WORKLOADS.items()]
    reference = {
        record.point: record.journal_entry()
        for record in run_sweep(points, workloads, [1], backend="auto").records
    }
    for entry in entries:
        expected = reference[entry.point]
        assert entry.status == expected.status
        assert entry.fallback == expected.fallback
        assert entry.metrics == expected.metrics  # bit-identical round trip
