"""Crash-safe JSONL journaling of every request the daemon answers.

One line per finished request — endpoint, HTTP status, error type if
any, wall time — flushed and fsynced like the sweep journal, so a
post-mortem after a crash or a SIGKILL sees every request the daemon
actually resolved.  The file discipline is the sweep journal's own
(:class:`repro.dse.journal.AppendLog`): on reopen, a torn trailing
write (single- or multi-line) is truncated away so the next append
starts a clean record.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.dse.journal import AppendLog

REQUEST_LOG_VERSION = 1


def _request_line_is_damaged(line: bytes) -> bool:
    """Validator for one request-log line (for the shared tail repair)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return True
    return not (
        isinstance(payload, dict)
        and payload.get("kind") in ("header", "request")
    )


class RequestLog(AppendLog):
    """Append-only request journal with crash-safe per-line flushing.

    ``record`` is thread-safe: the daemon journals from its executor
    threads (never the event loop), and each entry's write + flush +
    fsync and its count in ``recorded_total`` happen under the log's
    lock, keeping lines whole and the count exact.
    """

    def __init__(self, path: "str | os.PathLike"):
        super().__init__(
            path,
            {
                "kind": "header",
                "log": "serve-requests",
                "version": REQUEST_LOG_VERSION,
            },
            _request_line_is_damaged,
        )

    @property
    def recorded_total(self) -> int:
        """Requests journaled since this log was opened."""
        return self.appended

    def record(
        self,
        request_id: int,
        endpoint: str,
        status: int,
        wall_time_s: float,
        error: Optional[str] = None,
        detail: Optional[dict] = None,
    ) -> None:
        """Journal one resolved request; flushed immediately."""
        self._append(json.dumps(
            {
                "kind": "request",
                "id": request_id,
                "endpoint": endpoint,
                "status": status,
                "wall_time_s": round(wall_time_s, 6),
                "error": error,
                "detail": detail,
            },
            sort_keys=True,
        ))


def load_request_log(path: "str | os.PathLike") -> list:
    """Read every well-formed request entry (for tests and post-mortems)."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail; repair happens on reopen
            if isinstance(payload, dict) and payload.get("kind") == "request":
                entries.append(payload)
    return entries
