"""A thin synchronous client for the daemon (stdlib ``http.client``).

Used by the CLI's ``--remote URL`` mode and by the test suite.  The
client speaks the same taxonomy as the server: a non-2xx answer is
raised as :class:`RemoteError` carrying the server's typed error name,
message, status, and ``Retry-After`` hint, so callers can branch on
``error_type`` exactly as they would on a local exception class.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Optional
from urllib.parse import urlsplit

from repro.errors import ConfigurationError, RemoteError


class ServeClient:
    """One daemon endpoint; a fresh connection per request.

    Args:
        url: Base URL, e.g. ``http://127.0.0.1:8757``.
        timeout_s: Socket-level timeout per request.
        deadline_s: Server-side request deadline (``X-Deadline-S``);
            ``None`` leaves the server default.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 120.0,
        deadline_s: Optional[float] = None,
    ):
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ConfigurationError(
                f"only http:// daemon URLs are supported, got {url!r}"
            )
        if not split.hostname:
            raise ConfigurationError(f"daemon URL has no host: {url!r}")
        self.host = split.hostname
        self.port = split.port or 8757
        self.timeout_s = timeout_s
        self.deadline_s = deadline_s

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
    ) -> dict:
        """One HTTP exchange; 2xx returns the JSON payload, else raises.

        Raises:
            RemoteError: the daemon answered with an error status.
            ConfigurationError: the daemon is unreachable or answered
                with something that is not the protocol.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        headers = {"Content-Type": "application/json"}
        if self.deadline_s is not None:
            headers["X-Deadline-S"] = f"{self.deadline_s:g}"
        encoded = json.dumps(body).encode("utf-8") if body is not None \
            else b""
        try:
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
            retry_after = response.getheader("Retry-After")
        except (ConnectionError, OSError) as error:
            raise ConfigurationError(
                f"daemon at {self.host}:{self.port} is unreachable: "
                f"{error}"
            ) from error
        finally:
            connection.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ConfigurationError(
                f"daemon answered non-JSON (status {status})"
            ) from error
        if 200 <= status < 300:
            return payload
        raise RemoteError(
            payload.get("message", f"HTTP {status}"),
            status=status,
            error_type=payload.get("error", ""),
            retry_after_s=(
                float(retry_after) if retry_after is not None
                else payload.get("retry_after_s")
            ),
            payload=payload,
        )

    def request_with_backoff(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        max_attempts: int = 5,
        sleep=time.sleep,
    ) -> dict:
        """Like :meth:`request`, but honors 503 shedding with backoff."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.request(method, path, body)
            except RemoteError as error:
                if not error.is_shed or attempt >= max_attempts:
                    raise
                sleep(error.retry_after_s or 1.0)

    # -- endpoint wrappers ---------------------------------------------------

    def status(self) -> dict:
        return self.request("GET", "/status")

    def estimate(self, point, **body) -> dict:
        body["point"] = list(point)
        return self.request("POST", "/estimate", body)

    def sweep(self, points, **body) -> dict:
        body["points"] = [list(point) for point in points]
        return self.request("POST", "/sweep", body)

    def optimize(self, **body) -> dict:
        return self.request("POST", "/optimize", body)

    def doctor(self, **body) -> dict:
        return self.request("POST", "/doctor", body)

    def drain(self) -> dict:
        return self.request("POST", "/drain")

    def wait_healthy(
        self, timeout_s: float = 10.0, interval_s: float = 0.1
    ) -> dict:
        """Poll ``/status`` until the daemon answers or the budget ends."""
        deadline = time.monotonic() + timeout_s
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.status()
            except (ConfigurationError, RemoteError) as error:
                last_error = error
                time.sleep(interval_s)
        raise ConfigurationError(
            f"daemon at {self.host}:{self.port} did not become healthy "
            f"within {timeout_s:g}s: {last_error}"
        )
