"""Shared plumbing for the fake API servers.

A fake is a handler, ``handle(Request) -> Response``, reached one of two
ways. In a scenario the clients' :class:`InProcessTransport` hands each
request to it on the caller's thread, with no socket. Only tests of the
wire serve a fake: :class:`ServedFake` gives each fake a ``start`` that puts
its handler behind a :class:`~runner_manager.harness.wire.FakeHttpServer`.
This module loads none of the wire stack (no ``http.client``,
``http.server``, ``socket`` or ``ssl``); ``start`` imports the wire module
when a test first serves a fake. Handlers must never block on time --
fakes answer instantly so simulated time stays under the clock's control.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from typing import TYPE_CHECKING, Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from ..transport import HttpResponse

if TYPE_CHECKING:
    from .wire import FakeHttpServer


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
    handler on the caller's thread, as the wire's ``FakeHttpServer`` would
    deliver it (header names lowercased), and no socket is opened."""

    def __init__(self, handle: Handler):
        self._handle = handle

    def request(self, method: str, path: str, headers: dict[str, str], body: bytes | None = None) -> HttpResponse:
        request = Request(method, path, {name.lower(): value for name, value in headers.items()}, body or b"")
        response = answer(self._handle, request)
        headers = {name.lower(): value for name, value in response.headers.items()}
        return HttpResponse(response.status, headers, response.body)

    def close(self) -> None:
        pass


_Served = TypeVar("_Served", bound="ServedFake")


class ServedFake:
    """Lets a fake serve its ``handle`` over HTTP on a loopback port, from
    ``start`` to ``close``, for tests of the wire; scenarios call
    ``handle`` in-process."""

    _server: FakeHttpServer | None = None  # bound only by start()

    def start(self: _Served) -> _Served:
        from .wire import FakeHttpServer  # only serving a fake needs the HTTP server stack

        self._server = FakeHttpServer(self.handle)
        self._server.start()
        return self

    def close(self) -> None:
        if self._server is not None:
            self._server.close()

    @property
    def base_url(self) -> str:
        return self._server.base_url
