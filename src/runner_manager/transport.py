"""Minimal HTTP transport shared by the GitHub and Kubernetes clients.

Keeps one persistent connection per origin (the control loop talks to
exactly two endpoints, thousands of times a day) and verifies TLS against
an explicit CA bundle when one is given.
"""

from __future__ import annotations

import http.client
import ssl
import threading
from urllib.parse import urlsplit

from .errors import TransientError

TIMEOUT_S = 30.0


class HttpResponse:
    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers  # keys lowercased
        self.body = body

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)


class HttpTransport:
    """Synchronous requests with per-origin connection reuse."""

    def __init__(self, ca_file: str | None = None):
        self._ca_file = ca_file
        self._lock = threading.Lock()
        self._connections: dict[tuple[str, str, int], http.client.HTTPConnection] = {}

    def _connection(self, scheme: str, host: str, port: int) -> http.client.HTTPConnection:
        key = (scheme, host, port)
        conn = self._connections.get(key)
        if conn is None:
            if scheme == "https":
                context = ssl.create_default_context(cafile=self._ca_file)
                conn = http.client.HTTPSConnection(host, port, timeout=TIMEOUT_S, context=context)
            else:
                conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
            self._connections[key] = conn
        return conn

    def request(self, method: str, url: str, headers: dict[str, str], body: bytes | None = None) -> HttpResponse:
        """Issue one request; transport-level failures raise TransientError."""
        parts = urlsplit(url)
        host = parts.hostname or ""
        port = parts.port or (443 if parts.scheme == "https" else 80)
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"

        with self._lock:
            for attempt in (1, 2):  # one silent reconnect for a dropped keep-alive socket
                conn = self._connection(parts.scheme, host, port)
                try:
                    conn.request(method, path, body=body, headers=headers)
                    raw = conn.getresponse()
                    payload = raw.read()
                    return HttpResponse(
                        status=raw.status,
                        headers={k.lower(): v for k, v in raw.getheaders()},
                        body=payload,
                    )
                except (http.client.HTTPException, ConnectionError, OSError) as exc:
                    conn.close()
                    self._connections.pop((parts.scheme, host, port), None)
                    if attempt == 2:
                        raise TransientError(f"{method} {url}: transport failure: {exc}") from exc

        raise AssertionError("unreachable")

    def close(self) -> None:
        with self._lock:
            for conn in self._connections.values():
                conn.close()
            self._connections.clear()
