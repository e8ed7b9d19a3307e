"""Daemon lifecycle: boot, signal handling, graceful drain, exit 0.

SIGTERM (and SIGINT) mean *drain*, not die:

1. the admission gate closes — new requests get a 503;
2. in-flight pooled sweeps observe the drain abort at the next point
   boundary, journal everything finished, and answer 503 with
   ``resumable: true`` so a client ``--resume`` completes them;
3. the daemon waits up to ``drain_grace_s`` for in-flight requests to
   resolve, flushes the request log, tears down the worker pool, and
   exits 0.

A second signal during the grace window skips the wait and tears down
immediately (still exit 0 — the journals are already consistent).  Once
the drain is over, further stop signals are ignored until the process
exits.

SIGHUP means *reload*, not restart: when the daemon was booted with
``--reload-config PATH``, the handler re-reads that JSON file on the
event loop and swaps the live-safe knobs (deadlines, admission bound,
breaker windows — see :data:`repro.serve.app.RELOADABLE_KEYS`) in
place.  The warm estimate cache, the worker pool, and every admitted
in-flight request survive the reload untouched, and the swap is
journaled to the request log as a ``/-/config-reload`` event.  Without
``--reload-config``, SIGHUP is acknowledged and ignored.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Optional

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.http import start_http_server


async def _serve_until_drained(
    app: ServeApp, *, ready_line: bool = True
) -> int:
    loop = asyncio.get_running_loop()
    app.drain_requested = asyncio.Event()
    force_teardown = asyncio.Event()
    server = await start_http_server(
        app.handle, app.config.host, app.config.port
    )

    def _on_signal(signame: str) -> None:
        if app.gate.draining:
            # Second signal: the operator is impatient; stop waiting.
            force_teardown.set()
            return
        print(f"neurometer serve: {signame} received, draining",
              file=sys.stderr, flush=True)
        app.begin_drain()

    for signame in ("SIGTERM", "SIGINT"):
        loop.add_signal_handler(
            getattr(signal, signame), _on_signal, signame
        )

    def _on_reload() -> None:
        if not app.config.reload_config:
            print(
                "neurometer serve: SIGHUP received but no --reload-config "
                "file was given; ignoring",
                file=sys.stderr,
                flush=True,
            )
            return
        app.reload_config()

    if hasattr(signal, "SIGHUP"):  # absent on non-POSIX platforms
        loop.add_signal_handler(signal.SIGHUP, _on_reload)

    sockets = server.sockets or ()
    if ready_line and sockets:
        host, port = sockets[0].getsockname()[:2]
        print(f"neurometer serve: listening on http://{host}:{port}",
              file=sys.stderr, flush=True)

    await app.drain_requested.wait()

    # Stop accepting new connections, then give in-flight requests the
    # grace window to resolve (sweeps abort at their next point boundary
    # and journal what finished, so the window is short in practice).
    server.close()
    await server.wait_closed()
    drain_task = asyncio.ensure_future(
        app.gate.drained(grace_s=app.config.drain_grace_s)
    )
    force_task = asyncio.ensure_future(force_teardown.wait())
    done, pending = await asyncio.wait(
        {drain_task, force_task}, return_when=asyncio.FIRST_COMPLETED
    )
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    clean = drain_task in done and drain_task.result()
    if clean:
        # The gate releases before handle() journals the response and
        # the connection writes it; wait briefly for the last handlers
        # (including un-gated /status and /drain ones) to finish so the
        # loop teardown does not cancel them mid-journal.
        deadline = loop.time() + 5.0
        while app.active_handles and loop.time() < deadline:
            await asyncio.sleep(0.01)
    else:
        print("neurometer serve: tearing down with "
              f"{app.gate.inflight} request(s) in flight",
              file=sys.stderr, flush=True)
    return 0


def run_server(
    config: ServeConfig, app: Optional[ServeApp] = None
) -> int:
    """Boot the daemon and block until it drains; returns the exit code.

    Returns with SIGTERM and SIGINT ignored: the caller is the exiting
    daemon.
    """
    app = app if app is not None else ServeApp(config)
    try:
        return asyncio.run(_serve_until_drained(app))
    finally:
        # Closing the loop restored the default SIGTERM/SIGINT actions.  A
        # second signal that arrives after the drain finished must neither
        # kill the teardown below with the journals half flushed nor turn
        # the clean exit after it into death by signal, so both stay
        # ignored from here on.
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        app.close()
        print("neurometer serve: drained, exiting", file=sys.stderr,
              flush=True)
