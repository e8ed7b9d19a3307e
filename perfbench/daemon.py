"""Harness for one ``neurometer serve`` daemon subprocess.

Boots on ``--port 0`` and reads the port from the ``listening on`` line;
the daemon's stderr goes to a file so a full pipe can never stall it.
Teardown asks for ``/drain``, waits a bounded time, then kills.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Optional

_LISTENING = re.compile(r"listening on (http://\S+)")

#: Seconds a boot may take before the harness gives up.
BOOT_TIMEOUT_S = 60.0

#: Seconds a drained daemon gets to exit before it is killed.
DRAIN_TIMEOUT_S = 30.0

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGTERM (a drain) if we die."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def _drained(client) -> bool:
    """Ask the daemon to drain; False when there is no one to ask."""
    from repro.errors import NeuroMeterError

    if client is None:
        return False
    try:
        client.drain()
    except NeuroMeterError:
        return False
    return True


class Daemon:
    """One daemon with its own work directory under ``workdir``."""

    def __init__(self, src_dir: str, workdir: str):
        self.src_dir = src_dir
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.boot_s = 0.0
        self._stderr = None

    @property
    def stderr_path(self) -> str:
        return os.path.join(self.workdir, "serve.stderr")

    def start(self) -> str:
        os.makedirs(os.path.join(self.workdir, "journals"), exist_ok=True)
        env = dict(os.environ, PYTHONPATH=self.src_dir,
                   TMPDIR=self.workdir)
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--journal-dir", os.path.join(self.workdir, "journals"),
             "--request-log", os.path.join(self.workdir, "requests.jsonl")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr, env=env, preexec_fn=_die_with_parent,
        )
        deadline = started + BOOT_TIMEOUT_S
        while True:
            with open(self.stderr_path, encoding="utf-8") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening: {self.stderr_tail()}"
                )
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"daemon did not listen within {BOOT_TIMEOUT_S:g}s"
                )
            time.sleep(0.005)
        self.boot_s = time.perf_counter() - started
        return match.group(1)

    def stderr_tail(self, limit: int = 400) -> str:
        with open(self.stderr_path, encoding="utf-8") as fh:
            return fh.read()[-limit:]

    def stop(self, client=None) -> int:
        """Drain, wait a bounded time, then kill; returns the exit code."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            if not _drained(client):
                self.proc.terminate()  # SIGTERM drains the daemon too
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        return self.proc.returncode

    def remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
