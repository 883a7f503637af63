"""A fake on the wire, for tests of the wire only.

:class:`FakeHttpServer` puts a fake's ``handle(Request) -> Response`` behind
the standard library's threading HTTP server on a loopback port, speaking
HTTP/1.1 with strict request framing (Content-Length only) and one complete
write per response. This is the one harness module that loads the HTTP
server stack (``http.server``, ``socketserver``, ``socket``); a scenario
never imports it, and :meth:`ServedFake.start` imports it when a test first
serves a fake.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .httpserver import Handler, Request, Response, answer


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
