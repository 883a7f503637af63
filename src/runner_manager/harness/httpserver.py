"""How a fake is reached.

A fake is a handler, ``handle(Request) -> Response``, with the messages of
:mod:`runner_manager.transport`, reached one of two ways. In a scenario the
clients' :class:`InProcessTransport` hands each request to it on the
caller's thread, with no socket. Only tests of the wire serve a fake:
:class:`ServedFake` gives each fake a ``start`` that puts its handler behind
the :class:`~runner_manager.status.HttpServer` that also serves the status
endpoint. This module loads none of the wire stack (no ``http.client``,
``http.server``, ``socket`` or ``ssl``); ``start`` imports the server when
a test first serves a fake. Handlers must never block on time -- fakes
answer instantly so simulated time stays under the clock's control.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar

from ..transport import Handler, Request, Response, answer

if TYPE_CHECKING:
    from ..status import HttpServer


class InProcessTransport:
    """The clients' transport in a scenario: each request goes to a fake's
    handler on the caller's thread, as ``HttpServer`` would deliver it
    (header names lowercased), and no socket is opened."""

    def __init__(self, handle: Handler):
        self._handle = handle

    def request(self, method: str, path: str, headers: dict[str, str], body: bytes | None = None) -> Response:
        request = Request(method, path, {name.lower(): value for name, value in headers.items()}, body or b"")
        return answer(self._handle, request)

    def close(self) -> None:
        pass


_Served = TypeVar("_Served", bound="ServedFake")


class ServedFake:
    """Lets a fake serve its ``handle`` over HTTP on a loopback port, from
    ``start`` to ``close``, for tests of the wire; scenarios call
    ``handle`` in-process."""

    _server: HttpServer | None = None  # bound only by start()

    def start(self: _Served) -> _Served:
        from ..status import HttpServer  # only serving a fake needs the HTTP server stack

        self._server = HttpServer(self.handle)
        self._server.start()
        return self

    def close(self) -> None:
        if self._server is not None:
            self._server.close()

    @property
    def base_url(self) -> str:
        return self._server.base_url
