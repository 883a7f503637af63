"""Shared plumbing for the fake API servers.

A fake is a handler, ``handle(Request) -> Response``, reached one of two
ways. In a scenario the clients' :class:`InProcessTransport` hands each
request to it on the caller's thread, with no socket. Only tests of the
wire serve a fake: :class:`ServedFake` gives each fake a ``start`` that puts
its handler behind a :class:`FakeHttpServer`, the standard library's
threading HTTP server speaking HTTP/1.1, with strict request framing
(Content-Length only) and one complete write per response. Handlers must
never block on time -- fakes answer instantly so simulated time stays
under the clock's control.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from ..transport import HttpResponse


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
    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}

    @classmethod
    def json(cls, status: int, payload, headers: dict[str, str] | None = None) -> "Response":
        return cls(status, json.dumps(payload).encode(), "application/json", headers)

    def render(self) -> bytes:
        head = [f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown Status')}"]
        head.append(f"Content-Type: {self.content_type}")
        head.append(f"Content-Length: {len(self.body)}")
        for name, value in self.headers.items():
            head.append(f"{name}: {value}")
        head.append("\r\n")
        return "\r\n".join(head).encode() + self.body


# Scripted faults may answer any code from 400 to 599; HTTPStatus names
# most, and render gives the rest a fixed phrase.
_REASONS = {status.value: status.phrase for status in HTTPStatus}

Handler = Callable[[Request], Response]


def answer(handle: Handler, request: Request) -> Response:
    """``handle``'s response; a handler bug is answered ``500``, naming it."""
    try:
        return handle(request)
    except Exception as exc:  # noqa: BLE001 - surface handler bugs to the client
        return Response.json(500, {"message": f"fake server handler error: {exc!r}"})


class InProcessTransport:
    """The clients' transport in a scenario: each request goes to a fake's
    handler on the caller's thread, as :class:`FakeHttpServer` would deliver
    it (header names lowercased), and no socket is opened."""

    def __init__(self, handle: Handler):
        self._handle = handle

    def request(self, method: str, path: str, headers: dict[str, str], body: bytes | None = None) -> HttpResponse:
        request = Request(method, path, {name.lower(): value for name, value in headers.items()}, body or b"")
        response = answer(self._handle, request)
        headers = {name.lower(): value for name, value in response.headers.items()}
        return HttpResponse(response.status, headers, response.body)

    def close(self) -> None:
        pass


class _Exchange(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # the connection stays open between requests
    disable_nagle_algorithm = True

    def _serve(self) -> None:
        # Exactly Content-Length body bytes; a length that is not digits is
        # answered 400 and ends the connection.
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            self.wfile.write(Response.json(400, {"message": f"malformed Content-Length {declared!r}"}).render())
            self.close_connection = True
            return
        length = int(declared)
        body = self.rfile.read(length)
        if len(body) < length:  # the client hung up mid-body
            self.close_connection = True
            return
        headers = {name.lower(): value for name, value in self.headers.items()}
        request = Request(self.command, self.path, headers, body)
        self.wfile.write(answer(self.server.handler, request).render())

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _serve

    def log_message(self, format, *args) -> None:  # noqa: A002 (http.server API)
        pass


class FakeHttpServer(ThreadingHTTPServer):
    """Serves `handle(request) -> Response` on a loopback port over
    persistent connections, one thread each."""

    # Connection threads neither keep the process alive nor hold up
    # close(): a client's open connection ends when the client closes it.
    daemon_threads = True
    block_on_close = False

    def __init__(self, handle: Handler):
        super().__init__(("127.0.0.1", 0), _Exchange)
        self.handler = handle

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        # shutdown() waits up to one poll, so close() takes at most 10 ms.
        threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True).start()

    def close(self) -> None:
        self.shutdown()
        self.server_close()


_Served = TypeVar("_Served", bound="ServedFake")


class ServedFake:
    """Lets a fake serve its ``handle`` over HTTP on a loopback port, from
    ``start`` to ``close``, for tests of the wire; scenarios call
    ``handle`` in-process."""

    _server: FakeHttpServer | None = None  # bound only by start()

    def start(self: _Served) -> _Served:
        self._server = FakeHttpServer(self.handle)
        self._server.start()
        return self

    def close(self) -> None:
        if self._server is not None:
            self._server.close()

    @property
    def base_url(self) -> str:
        return self._server.base_url
