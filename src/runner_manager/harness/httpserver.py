"""Shared plumbing for the fake API servers.

A fake is a handler, ``handle(Request) -> Response``, reached one of two
ways. In a scenario the clients' :class:`InProcessTransport` hands each
request to it on the caller's thread, with no socket. Tests of the wire
serve it with :class:`FakeHttpServer`: a deliberately small HTTP/1.1 server
over raw sockets, with an accept loop plus one thread per connection,
strict request framing (Content-Length only) and one complete write per
response. Handlers must never block on time -- fakes answer instantly so
simulated time stays under the clock's control. http.server is avoided on
purpose: its buffered handler stack is hard to reason about.
"""

from __future__ import annotations

import json
import socket
import threading
from http import HTTPStatus
from typing import Callable
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

_MAX_HEADER_BYTES = 65536

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


class FakeHttpServer:
    """Serves `handle(request) -> Response` over persistent connections."""

    def __init__(self, handle: Handler):
        self._handle = handle
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self._closing = threading.Event()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._accept_thread.start()

    def close(self) -> None:
        self._closing.set()
        with self._conns_lock:
            sockets = [self._sock, *self._conns]
        # close() alone does not wake a thread blocked in accept() or recv()
        # on Linux; shutdown() does.
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if self._accept_thread.is_alive():
            self._accept_thread.join(timeout=5.0)

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        try:
            while not self._closing.is_set():
                request, buffer = self._read_request(conn, buffer)
                if request is None:
                    return
                conn.sendall(answer(self._handle, request).render())
        except OSError:
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _read_request(self, conn: socket.socket, buffer: bytes) -> tuple[Request | None, bytes]:
        # Headers first.
        while b"\r\n\r\n" not in buffer:
            if len(buffer) > _MAX_HEADER_BYTES:
                return None, b""
            chunk = conn.recv(65536)
            if not chunk:
                return None, b""
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None, b""
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        # Then exactly Content-Length body bytes; a length that is not
        # digits is answered 400 and ends the connection.
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            conn.sendall(Response.json(400, {"message": f"malformed Content-Length {declared!r}"}).render())
            return None, b""
        length = int(declared)
        while len(buffer) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return None, b""
            buffer += chunk
        body, buffer = buffer[:length], buffer[length:]
        return Request(method, target, headers, body), buffer
