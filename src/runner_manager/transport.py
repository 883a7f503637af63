"""Minimal HTTP transport shared by the GitHub and Kubernetes clients.

Each transport talks to one origin, named by its base URL, over one
persistent connection (the control loop sends its requests to exactly two
endpoints, thousands of times a day), and verifies TLS against an explicit
CA bundle when one is given. Callers pass paths below the base, so a base
with a path of its own, such as GitHub Enterprise Server's ``/api/v3``,
keeps it.

The wire stack (``http.client``, which brings ``socket`` and ``ssl``) is
imported at a transport's first request, not with this module. A process
whose clients never send one loads none of it: in a scenario the clients'
transport hands each request to a fake in-process.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .errors import TransientError

if TYPE_CHECKING:
    from http.client import HTTPConnection

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
    """Synchronous requests to one origin over one reused connection."""

    def __init__(self, base_url: str, ca_file: str | None = None):
        self._base_url = base_url.rstrip("/")
        self._origin = urlsplit(self._base_url)
        self._ca_file = ca_file
        self._lock = threading.Lock()
        self._conn: HTTPConnection | None = None

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            import http.client

            host, port = self._origin.hostname or "", self._origin.port  # None: the scheme's default
            if self._origin.scheme == "https":
                import ssl

                context = ssl.create_default_context(cafile=self._ca_file)
                self._conn = http.client.HTTPSConnection(host, port, timeout=TIMEOUT_S, context=context)
            else:
                self._conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        return self._conn

    def request(self, method: str, path: str, headers: dict[str, str], body: bytes | None = None) -> HttpResponse:
        """Issue one request for ``path`` below the base URL; transport-level
        failures raise TransientError."""
        import http.client  # loaded at the first request; the except clause names it

        with self._lock:
            for attempt in (1, 2):  # one silent reconnect for a dropped keep-alive socket
                conn = self._connection()
                try:
                    conn.request(method, f"{self._origin.path}{path}", body=body, headers=headers)
                    raw = conn.getresponse()
                    return HttpResponse(
                        status=raw.status,
                        headers={k.lower(): v for k, v in raw.getheaders()},
                        body=raw.read(),
                    )
                except (http.client.HTTPException, ConnectionError, OSError) as exc:
                    self._drop()
                    if attempt == 2:
                        raise TransientError(f"{method} {self._base_url}{path}: transport failure: {exc}") from exc

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop()
