"""The HTTP messages, and the minimal transport the GitHub and Kubernetes
clients send them over. A transport returns a :class:`Response`, and a
server's handler -- the status endpoint's and each fake API's -- is a
``Handler``, ``handle(Request) -> Response``.

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

import json
import logging
import threading
from http import HTTPStatus
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qs, urlsplit

from .errors import TransientError

if TYPE_CHECKING:
    from http.client import HTTPConnection

logger = logging.getLogger(__name__)

TIMEOUT_S = 30.0


class Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict[str, str], body: bytes):
        parts = urlsplit(target)
        self.method = method
        self.path = parts.path
        self.query = {k: v[0] for k, v in parse_qs(parts.query).items()}
        self.headers = headers  # keys lowercased
        self.body = body

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except ValueError:
            return {}
        return data if isinstance(data, dict) else {}


class Response:
    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: bytes = b"", headers: dict[str, str] | None = None):
        self.status = status
        self.body = body
        self.headers = {name.lower(): value for name, value in (headers or {}).items()}

    @classmethod
    def json(cls, status: int, payload, headers: dict[str, str] | None = None) -> "Response":
        return cls(status, json.dumps(payload).encode(), {"content-type": "application/json", **(headers or {})})

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())

    def render(self) -> bytes:
        head = [f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown Status')}"]
        head.extend(f"{name}: {value}" for name, value in self.headers.items())
        head.append(f"Content-Length: {len(self.body)}")
        head.append("\r\n")
        return "\r\n".join(head).encode() + self.body


# Scripted faults may answer any code from 400 to 599; HTTPStatus names
# most, and render gives the rest a fixed phrase.
_REASONS = {status.value: status.phrase for status in HTTPStatus}

Handler = Callable[[Request], Response]


def answer(handle: Handler, request: Request) -> Response:
    """``handle``'s response; a handler bug is logged with its traceback and
    answered ``500``."""
    try:
        return handle(request)
    except Exception:  # noqa: BLE001 - a handler bug is the server's to report, not the client's
        logger.exception("%s %s: server handler error", request.method, request.path)
        return Response.json(500, {"message": "server handler error"})


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

    def request(self, method: str, path: str, headers: dict[str, str], body: bytes | None = None) -> Response:
        """Issue one request for ``path`` below the base URL; transport-level
        failures raise TransientError."""
        import http.client  # loaded at the first request; the except clause names it

        with self._lock:
            for attempt in (1, 2):  # one silent reconnect for a dropped keep-alive socket
                conn = self._connection()
                try:
                    conn.request(method, f"{self._origin.path}{path}", body=body, headers=headers)
                    raw = conn.getresponse()
                    return Response(raw.status, raw.read(), dict(raw.getheaders()))
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
